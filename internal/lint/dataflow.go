package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// This file is the intra-procedural dataflow layer under the call graph:
// per-function classification of where values come from and where stores
// go. It is deliberately lightweight — no SSA, just one pass over the
// function's assignments — because the properties the analyzers need
// are coarse:
//
//   - PRNG provenance: a *rand.Rand local is clean only when every
//     assignment to it is a rand.New(...) construction in this very
//     function. Parameters, fields and other call results are tainted —
//     they alias the simulation's shared, order-sensitive stream;
//   - engine writes: stores whose lvalue chain passes through
//     sim.Engine/Env state, a *sim.Event, a *sim.Request or a
//     *frames.Frame, and calls to the mutating Engine/Env methods.

// engineReadOnly are the sim.Engine methods hook code may call: pure
// observations of the engine's public state.
var engineReadOnly = map[string]bool{
	"Now": true, "Topo": true, "Timing": true, "Rand": true, "EnvOf": true,
}

// envReadOnly are the sim.Env methods hook code may call. The Report*
// dispatchers are deliberately absent: an observer reporting protocol
// events re-enters the engine's bookkeeping mid-slot.
var envReadOnly = map[string]bool{
	"Node": true, "Now": true, "Timing": true, "Topo": true, "Neighbors": true,
	"Pos": true, "CarrierBusy": true, "IdleFor": true, "Yielding": true,
	"YieldingToOther": true, "Transmitting": true, "Rand": true,
}

// randStructs are the math/rand and math/rand/v2 receiver types whose
// method calls consume pseudo-randomness.
var randStructs = map[string]bool{"Rand": true, "Zipf": true, "PCG": true, "ChaCha8": true}

// funcData carries the per-function dataflow state while scanBody walks
// one declaration.
type funcData struct {
	node    *FuncNode
	info    *types.Info
	simPath string

	recvParam map[*types.Var]bool
	cleanRand map[*types.Var]bool
}

// newFuncData runs the pre-pass over the declaration: receiver/param
// collection and the clean-PRNG classification.
func newFuncData(node *FuncNode, simPath string) *funcData {
	df := &funcData{
		node:      node,
		info:      node.Pkg.Info,
		simPath:   simPath,
		recvParam: map[*types.Var]bool{},
		cleanRand: map[*types.Var]bool{},
	}
	sig, _ := node.Fn.Type().(*types.Signature)
	if sig != nil {
		if r := sig.Recv(); r != nil {
			df.recvParam[r] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			df.recvParam[sig.Params().At(i)] = true
		}
	}
	// Receiver/param idents in the AST resolve to distinct *types.Var
	// objects from the declaration's field list; register those too.
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := df.info.Defs[name].(*types.Var); ok {
					df.recvParam[v] = true
				}
			}
		}
	}
	collect(node.Decl.Recv)
	collect(node.Decl.Type.Params)

	type pair struct{ lhs, rhs ast.Expr }
	var pairs []pair
	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					pairs = append(pairs, pair{n.Lhs[i], n.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					pairs = append(pairs, pair{n.Names[i], n.Values[i]})
				}
			}
		}
		return true
	})

	// A local is clean only when every assignment to it is a
	// construction.
	dirty := map[*types.Var]bool{}
	for _, pr := range pairs {
		id, ok := ast.Unparen(pr.lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v := df.lhsVar(id)
		if v == nil || df.recvParam[v] {
			continue
		}
		if isRandConstruction(df.info, pr.rhs) {
			if !dirty[v] {
				df.cleanRand[v] = true
			}
		} else {
			dirty[v] = true
			delete(df.cleanRand, v)
		}
	}
	return df
}

// lhsVar resolves an assignment-target identifier to its variable.
func (df *funcData) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := df.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := df.info.Uses[id].(*types.Var)
	return v
}

// isRandConstruction reports whether the expression is a rand.New(...)
// style construction — the one provenance that makes a *rand.Rand local
// clean.
func isRandConstruction(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return randConstructors[fn.Name()]
	}
	return false
}

// isRandType reports whether t is (a pointer to) one of the math/rand
// generator types.
func isRandType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return randStructs[named.Obj().Name()]
	}
	return false
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isEngineOrEnv reports whether t is (a pointer to) sim.Engine or
// sim.Env for this package's module.
func (df *funcData) isEngineOrEnv(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != df.simPath {
		return false
	}
	name := named.Obj().Name()
	return name == "Engine" || name == "Env"
}

// isShownRecord reports whether t is *sim.Event, *sim.Request or
// *frames.Frame: the records the engine shows its hooks read-only.
func (df *funcData) isShownRecord(t types.Type) bool {
	s := types.TypeString(t, nil)
	return s == "*"+df.simPath+".Event" || s == "*"+df.simPath+".Request" ||
		s == "*"+path.Dir(df.simPath)+"/frames.Frame"
}

// scanWrite raises the engine-write fact for the stores of an assignment
// or inc/dec statement that land in engine-shared state (engineBase).
func (df *funcData) scanWrite(n ast.Node) {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	}
	for _, lhs := range targets {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if base := df.engineBase(lhs); base != "" {
			df.node.Facts = append(df.node.Facts, Fact{FactEngineWrite, lhs.Pos(), "store through " + base + " state"})
		}
	}
}

// engineBase walks an lvalue's selector chain and reports the first
// prefix typed as sim.Engine/Env or as a shown record ("(sim.Env)"), or "".
func (df *funcData) engineBase(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if t := df.info.Types[x.X].Type; t != nil && (df.isEngineOrEnv(t) || df.isShownRecord(t)) {
				return "(" + types.TypeString(namedOf(t), (*types.Package).Name) + ")"
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// scanRandDraw raises a draw fact for method calls that consume
// randomness from a generator not constructed locally: FactParamDraw
// when the generator arrived as a parameter — the caller chose the
// stream — FactTaintedDraw for fields and other untracked
// sources, which alias the simulation's shared, order-sensitive stream.
func (df *funcData) scanRandDraw(call *ast.CallExpr, fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isRandType(sig.Recv().Type()) {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := ast.Unparen(sel.X)
	if id, ok := recv.(*ast.Ident); ok {
		if v, _ := df.info.Uses[id].(*types.Var); v != nil {
			if df.cleanRand[v] {
				return
			}
			if df.recvParam[v] {
				df.node.Facts = append(df.node.Facts, Fact{FactParamDraw, call.Pos(),
					"PRNG draw ." + fn.Name() + "() from a caller-supplied *rand.Rand"})
				return
			}
		}
	}
	if isRandConstruction(df.info, recv) {
		return
	}
	df.node.Facts = append(df.node.Facts, Fact{FactTaintedDraw, call.Pos(),
		"PRNG draw ." + fn.Name() + "() from a shared *rand.Rand"})
}

// scanEngineCall raises the engine-write fact for calls to mutating
// sim.Engine / sim.Env methods.
func (df *funcData) scanEngineCall(call *ast.CallExpr, fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !df.isEngineOrEnv(sig.Recv().Type()) {
		return
	}
	named := namedOf(sig.Recv().Type())
	allow := engineReadOnly
	if named.Obj().Name() == "Env" {
		allow = envReadOnly
	}
	if allow[fn.Name()] {
		return
	}
	df.node.Facts = append(df.node.Facts, Fact{FactEngineWrite, call.Pos(),
		"call to mutating (sim." + named.Obj().Name() + ")." + fn.Name()})
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intra-procedural dataflow layer under the call graph:
// per-function classification of where values come from and where stores
// go. It is deliberately lightweight — no SSA, just a fixed point over
// the function's assignments — because the properties the analyzers need
// are coarse:
//
//   - storage roots: is an lvalue rooted in a local, in receiver/param
//     storage, or in a package-level variable? A "field-backed local"
//     (x := e.buf[:0]) inherits its source's root, which is what lets
//     hotalloc tell the sanctioned amortized-scratch idiom from a fresh
//     per-call allocation;
//   - PRNG provenance: a *rand.Rand local is clean only when every
//     assignment to it is a rand.New(...) construction in this very
//     function. Parameters, fields and other call results are tainted —
//     they alias the simulation's shared, order-sensitive stream;
//   - cold ranges: expressions inside panic(...), fmt.Errorf(...) and
//     errors.New(...) arguments are crash/rejection paths, not
//     steady-state slot work, and are exempt from allocation accounting.

// rootKind is the origin of an lvalue or allocation destination.
type rootKind uint8

const (
	rootLocal rootKind = iota
	rootRecvParam
	rootGlobal
	rootUnknown
)

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
	"Pos": true, "CarrierBusy": true, "Transmitting": true, "Rand": true, "LifecycleOn": true,
}

// randStructs are the math/rand and math/rand/v2 receiver types whose
// method calls consume pseudo-randomness.
var randStructs = map[string]bool{"Rand": true, "Zipf": true, "PCG": true, "ChaCha8": true}

type posRange struct{ lo, hi token.Pos }

// funcData carries the per-function dataflow state while scanBody walks
// one declaration.
type funcData struct {
	node    *FuncNode
	info    *types.Info
	simPath string

	recvParam   map[*types.Var]bool
	fieldBacked map[*types.Var]bool
	cleanRand   map[*types.Var]bool
	// destRoot maps a top-level RHS expression to the storage root of the
	// LHS it is assigned into.
	destRoot map[ast.Expr]rootKind
	// addrTaken marks composite literals under a & operator.
	addrTaken map[*ast.CompositeLit]bool
	// invoked marks function literals called in place (the Multi*
	// combinator dispatch pattern) — not closures that escape.
	invoked map[*ast.FuncLit]bool
	// coldRanges spans panic / fmt.Errorf / errors.New argument lists.
	coldRanges []posRange

	allocs []AllocSite
}

// newFuncData runs the pre-pass over the declaration: receiver/param
// collection, the field-backed and clean-PRNG fixed points, allocation
// destinations, address-taken literals and cold ranges.
func newFuncData(node *FuncNode, simPath string) *funcData {
	df := &funcData{
		node:        node,
		info:        node.Pkg.Info,
		simPath:     simPath,
		recvParam:   map[*types.Var]bool{},
		fieldBacked: map[*types.Var]bool{},
		cleanRand:   map[*types.Var]bool{},
		destRoot:    map[ast.Expr]rootKind{},
		addrTaken:   map[*ast.CompositeLit]bool{},
		invoked:     map[*ast.FuncLit]bool{},
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
	dirtyRand := map[*types.Var]bool{}
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
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					df.addrTaken[cl] = true
				}
			}
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				df.invoked[fl] = true
			}
			if isColdCall(df.info, n) {
				df.coldRanges = append(df.coldRanges, posRange{n.Pos(), n.End()})
			}
			// Nested FuncLit bodies also count: a closure passed to a
			// cold call allocates only on the cold path.
		}
		return true
	})

	// Fixed point: field-backed locals and clean PRNG locals. Bounded by
	// the pair count; in practice stable after two rounds.
	for changed := true; changed; {
		changed = false
		for _, pr := range pairs {
			id, ok := ast.Unparen(pr.lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := df.lhsVar(id)
			if v == nil || df.recvParam[v] {
				continue
			}
			switch df.rootOf(pr.rhs) {
			case rootRecvParam, rootGlobal:
				if !df.fieldBacked[v] {
					df.fieldBacked[v] = true
					changed = true
				}
			}
			if isRandConstruction(df.info, pr.rhs) {
				if !df.cleanRand[v] && !dirtyRand[v] {
					df.cleanRand[v] = true
					changed = true
				}
			} else if df.cleanRand[v] || isRandType(df.info.Types[pr.rhs].Type) {
				delete(df.cleanRand, v)
				dirtyRand[v] = true
			}
		}
	}

	// Allocation destinations, resolved after the roots are stable.
	for _, pr := range pairs {
		rhs := ast.Unparen(pr.rhs)
		root := df.rootOf(pr.lhs)
		df.destRoot[rhs] = root
		if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
			df.destRoot[ast.Unparen(u.X)] = root
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

// rootOf classifies the storage an expression's value lives in (for
// lvalues) or is rooted at (for slices of fields, etc.).
func (df *funcData) rootOf(e ast.Expr) rootKind {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := df.info.Uses[e].(*types.Var)
		if !ok {
			if v, ok = df.info.Defs[e].(*types.Var); !ok {
				return rootUnknown
			}
		}
		switch {
		case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
			return rootGlobal
		case df.recvParam[v], df.fieldBacked[v]:
			return rootRecvParam
		default:
			return rootLocal
		}
	case *ast.SelectorExpr:
		if sel := df.info.Selections[e]; sel != nil {
			return df.rootOf(e.X) // field or method selection: root of the base
		}
		// Qualified identifier: pkg.Var.
		if v, ok := df.info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return rootGlobal
		}
		return rootUnknown
	case *ast.IndexExpr:
		return df.rootOf(e.X)
	case *ast.SliceExpr:
		return df.rootOf(e.X)
	case *ast.StarExpr:
		return df.rootOf(e.X)
	case *ast.TypeAssertExpr:
		return df.rootOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return df.rootOf(e.X)
		}
		return rootUnknown
	case *ast.CallExpr:
		// append's result keeps the root of the slice it grows; any
		// other call result is untracked storage.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, isB := df.info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && len(e.Args) > 0 {
				return df.rootOf(e.Args[0])
			}
		}
		return rootUnknown
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return rootLocal
	default:
		return rootUnknown
	}
}

// inCold reports whether pos lies inside a panic / error-construction
// argument list.
func (df *funcData) inCold(pos token.Pos) bool {
	for _, r := range df.coldRanges {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// isColdCall recognises panic(...) and the error constructors whose
// arguments are rejection paths, not steady-state work.
func isColdCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "fmt":
			return fn.Name() == "Errorf"
		case "errors":
			return fn.Name() == "New"
		}
	}
	return false
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

// scanWrite raises the engine-write fact for the stores of an assignment
// or inc/dec statement that land in sim.Engine/Env state.
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
// prefix typed as sim.Engine/Env ("(sim.Engine)"), or "".
func (df *funcData) engineBase(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if t := df.info.Types[x.X].Type; t != nil && df.isEngineOrEnv(t) {
				return "(sim." + namedOf(t).Obj().Name() + ")"
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

// scanCallAllocs records the allocation sites a call expression implies:
// make / new / append growth, and interface boxing of non-pointer-shaped
// arguments.
func (df *funcData) scanCallAllocs(call *ast.CallExpr) {
	cold := df.inCold(call.Pos())
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := df.info.Uses[id].(*types.Builtin); isB {
			var what string
			switch b.Name() {
			case "make":
				t := df.info.Types[call].Type
				switch t.Underlying().(type) {
				case *types.Map:
					what = "make(map) allocation"
				case *types.Chan:
					what = "make(chan) allocation"
				default:
					what = "make([]) allocation"
				}
			case "new":
				what = "new(T) allocation"
			case "append":
				what = "append growth"
			default:
				return
			}
			dest := rootLocal
			if k, ok := df.destRoot[call]; ok {
				dest = k
			}
			df.allocs = append(df.allocs, AllocSite{
				Pos: call.Pos(), What: what,
				Amortized: dest == rootRecvParam || dest == rootGlobal,
				Type:      df.info.Types[call].Type,
				PanicArg:  cold,
			})
			return
		}
	}
	// Interface boxing at argument positions.
	sigT, _ := df.info.Types[call.Fun].Type.(*types.Signature)
	if sigT == nil {
		return
	}
	params := sigT.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sigT.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		tv := df.info.Types[arg]
		at := tv.Type
		if at == nil || types.IsInterface(at) || tv.Value != nil || tv.IsNil() {
			continue
		}
		if pointerShaped(at) {
			continue // pointers, chans, maps, funcs box without allocating
		}
		df.allocs = append(df.allocs, AllocSite{
			Pos: arg.Pos(), What: "interface boxing of " + at.String(),
			Type: at, PanicArg: cold || df.inCold(arg.Pos()),
		})
	}
}

// pointerShaped reports whether values of t fit an interface word
// directly, making the conversion allocation-free.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// scanAlloc records composite-literal and closure allocation sites.
func (df *funcData) scanAlloc(n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := df.info.Types[n].Type
		if t == nil {
			return
		}
		var what string
		switch t.Underlying().(type) {
		case *types.Map:
			what = "map literal allocation"
		case *types.Slice:
			what = "slice literal allocation"
		default:
			if !df.addrTaken[n] {
				return // value literal: no heap allocation of its own
			}
			what = "&composite-literal allocation"
		}
		dest := rootLocal
		if k, ok := df.destRoot[n]; ok {
			dest = k
		}
		df.allocs = append(df.allocs, AllocSite{
			Pos: n.Pos(), What: what,
			Amortized: dest == rootRecvParam || dest == rootGlobal,
			Type:      t,
			PanicArg:  df.inCold(n.Pos()),
		})
	case *ast.FuncLit:
		if df.invoked[n] {
			return // immediately invoked: dispatch, not an escaping closure
		}
		dest := rootLocal
		if k, ok := df.destRoot[n]; ok {
			dest = k
		}
		df.allocs = append(df.allocs, AllocSite{
			Pos: n.Pos(), What: "closure allocation",
			Amortized: dest == rootRecvParam || dest == rootGlobal,
			Type:      df.info.Types[n].Type,
			PanicArg:  df.inCold(n.Pos()),
		})
	}
}

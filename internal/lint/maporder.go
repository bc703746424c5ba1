package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderAnalyzer flags `range` over a map whose body leaks the
// iteration order — the classic silent determinism killer: Go randomizes
// map order per run, so any order-dependent effect inside the body makes
// two identically seeded runs diverge. A map range is order-dependent
// when its body
//
//   - draws from a PRNG (directly, or via a static call whose transitive
//     closure draws): the number-and-order of draws then depends on
//     iteration order;
//   - writes output (fmt.Fprint*/Print*, Write*/Print* methods, or a
//     call reaching process-global I/O): bytes appear in random order;
//   - appends results to a slice declared outside the range, unless that
//     slice is fed to a sort.*/slices.* call later in the same function —
//     the sanctioned collect-then-sort idiom;
//   - float-accumulates (+=, -=, *=, /=) into a variable declared
//     outside the range: float addition is not associative, so the sum's
//     low bits depend on visit order.
//
// Order-independent uses stay legal: stores into another map, delete,
// integer counters, and the collect-then-sort idiom above.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration in sim-path packages must not leak iteration order",
	Run:  runMaporder,
}

func runMaporder(p *Pass) {
	if !p.Cfg.inSimPath(p.Path) && !p.Cfg.inSerialPath(p.Path) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(p, file, rs)
			return true
		})
	}
}

func checkMapRange(p *Pass, file *ast.File, rs *ast.RangeStmt) {
	g := p.Graph()
	outside := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeOf(p.Info, n)
			if fn == nil {
				return true
			}
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil && isRandType(sig.Recv().Type()) {
				p.Reportf(n.Pos(), "PRNG draw inside map iteration; the draw order depends on Go's randomized map order")
				return true
			}
			if isOutputCall(fn) {
				p.Reportf(n.Pos(), "output written inside map iteration appears in randomized order; collect and sort first")
				return true
			}
			if tn := g.Nodes[canon(fn)]; tn != nil {
				switch {
				case g.Reaches(fn, FactTaintedDraw, true):
					p.Reportf(n.Pos(), "call inside map iteration reaches a PRNG draw: %s", g.WitnessPath(canon(fn), FactTaintedDraw, true))
				case g.Reaches(fn, FactGlobalRand, true):
					p.Reportf(n.Pos(), "call inside map iteration reaches a PRNG draw: %s", g.WitnessPath(canon(fn), FactGlobalRand, true))
				case g.Reaches(fn, FactProcessIO, true):
					p.Reportf(n.Pos(), "call inside map iteration reaches process output: %s", g.WitnessPath(canon(fn), FactProcessIO, true))
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			lhs := ast.Unparen(n.Lhs[0])
			obj := lhsObject(p, lhs)
			if !outside(obj) {
				return true
			}
			// Stores keyed into another map are order-independent.
			if _, isIdx := lhs.(*ast.IndexExpr); isIdx {
				return true
			}
			switch n.Tok {
			case token.ASSIGN, token.DEFINE:
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isAppendOf(p, call) {
					if !sortedLater(p, file, rs, obj) {
						p.Reportf(n.Pos(), "append of map-iteration results into %s without a later sort; the slice order is randomized — sort it (or iterate sorted keys)", obj.Name())
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if bt, ok := obj.Type().Underlying().(*types.Basic); ok && bt.Info()&types.IsFloat != 0 {
					p.Reportf(n.Pos(), "float accumulation into %s inside map iteration; float addition is order-sensitive — iterate sorted keys", obj.Name())
				}
			}
		}
		return true
	})
}

// lhsObject resolves an assignment target to the variable (or field)
// object it stores into, for identity comparison across statements.
func lhsObject(p *Pass, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[lhs]; obj != nil {
			return obj
		}
		return p.Info.Defs[lhs]
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[lhs]; sel != nil {
			return sel.Obj()
		}
		return p.Info.Uses[lhs.Sel]
	case *ast.IndexExpr:
		return lhsObject(p, ast.Unparen(lhs.X))
	}
	return nil
}

// isAppendOf reports whether the call is the builtin append.
func isAppendOf(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isOutputCall recognises the direct output sinks: the fmt print family
// and Write*/Print* methods on any receiver.
func isOutputCall(fn *types.Func) bool {
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		switch {
		case name == "Write", name == "WriteString", name == "WriteByte", name == "WriteRune",
			name == "Print", name == "Printf", name == "Println":
			return true
		}
	}
	return false
}

// sortedLater reports whether, after the range statement, the enclosing
// function passes obj to a sort.* or slices.* call — the collect-then-
// sort idiom that launders map order back into a deterministic one.
func sortedLater(p *Pass, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	fd := funcFor(file, rs.Pos())
	if fd == nil {
		return false
	}
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if p.Info.Uses[id] == obj {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

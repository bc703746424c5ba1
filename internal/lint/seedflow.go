package lint

import (
	"go/ast"
	"go/types"
)

// seedflowAnalyzer audits every rand.New / rand.NewSource / rand.NewPCG
// call, module-wide: the seed argument must be traceable to a function
// parameter, a struct/config field, a derivation call (seedFor,
// splitmix64, …) or any other runtime value — never an untracked literal.
// A literal seed silently decouples a generator from the experiment's
// seedFor scheme and breaks the paired-design guarantee that every
// protocol at a given (point, run) faces identical randomness.
//
// Concretely, an argument is flagged when it is constant-derived: a
// constant expression (literals, named constants, constant arithmetic and
// conversions), or a local variable whose every assignment is
// constant-derived. Anything flowing from a parameter, field, call result
// or index expression passes. Test files are never loaded, so throwaway
// literal seeds in *_test.go stay legal.
var seedflowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc:  "RNG seeds must trace to a parameter, config field or derivation — no untracked literals",
	Run:  runSeedflow,
}

func runSeedflow(p *Pass) {
	assigns := collectAssignments(p)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(p.Info, call)
			if fn == nil || fn.Pkg() == nil || !randConstructors[fn.Name()] {
				return true
			}
			if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			for _, arg := range call.Args {
				// rand.New(rand.NewSource(x)): the inner call is visited on
				// its own, and a call result is never constant-derived.
				if cd, site := constDerived(p, assigns, arg, map[types.Object]bool{}); cd {
					p.Reportf(site.Pos(), "untracked literal seed in %s.%s; thread the seed from a parameter, config field or splitmix64 derivation", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
}

// assignInfo records what a variable was assigned across the package.
type assignInfo struct {
	rhs []ast.Expr
	// dirty marks assignments whose value expression is not recoverable
	// (range clauses, multi-value unpacking, ++/--); a dirty variable is
	// never considered constant-derived.
	dirty bool
}

// collectAssignments builds the object → assignments table used to trace
// seed identifiers back to their defining expressions, covering both
// package-level ValueSpecs and in-function := / = statements.
func collectAssignments(p *Pass) map[types.Object]*assignInfo {
	out := map[types.Object]*assignInfo{}
	get := func(id *ast.Ident) *assignInfo {
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return nil
		}
		ai := out[obj]
		if ai == nil {
			ai = &assignInfo{}
			out[obj] = ai
		}
		return ai
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					ai := get(id)
					if ai == nil {
						continue
					}
					if len(st.Rhs) == len(st.Lhs) {
						ai.rhs = append(ai.rhs, st.Rhs[i])
					} else {
						ai.dirty = true
					}
				}
			case *ast.ValueSpec:
				for i, id := range st.Names {
					if id.Name == "_" {
						continue
					}
					ai := get(id)
					if ai == nil {
						continue
					}
					if len(st.Values) == len(st.Names) {
						ai.rhs = append(ai.rhs, st.Values[i])
					} else if len(st.Values) > 0 {
						ai.dirty = true
					}
					// A bare `var x T` stays zero-valued unless assigned;
					// with no recorded RHS it is not constant-derived.
				}
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{st.Key, st.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if ai := get(id); ai != nil {
							ai.dirty = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := st.X.(*ast.Ident); ok {
					if ai := get(id); ai != nil {
						ai.dirty = true
					}
				}
			}
			return true
		})
	}
	return out
}

// constDerived reports whether the expression's value is forced by
// constants alone, and if so returns the expression to anchor the finding
// on. seen guards against self-referential assignment chains.
func constDerived(p *Pass, assigns map[types.Object]*assignInfo, e ast.Expr, seen map[types.Object]bool) (bool, ast.Expr) {
	e = ast.Unparen(e)
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return true, e
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		lcd, _ := constDerived(p, assigns, x.X, seen)
		rcd, _ := constDerived(p, assigns, x.Y, seen)
		return lcd && rcd, e
	case *ast.UnaryExpr:
		cd, _ := constDerived(p, assigns, x.X, seen)
		return cd, e
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false, nil
	}
	obj, ok := p.Info.Uses[id].(*types.Var)
	if !ok || seen[obj] {
		return false, nil
	}
	ai := assigns[obj]
	if ai == nil || ai.dirty || len(ai.rhs) == 0 {
		return false, nil
	}
	seen[obj] = true
	defer delete(seen, obj)
	for _, rhs := range ai.rhs {
		if cd, _ := constDerived(p, assigns, rhs, seen); !cd {
			return false, nil
		}
	}
	return true, e
}

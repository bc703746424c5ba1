package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// frameswitchAnalyzer checks every switch over the frame Type tag: it
// must either enumerate all frames.NumTypes values or carry a default
// clause. The frame vocabulary has grown beyond 802.11 before (RAK, NAK);
// a receiver switch that silently ignores an unlisted frame type is
// exactly how a new control frame gets dropped on the floor with no
// trace. An explicit default documents that ignoring the rest is a
// decision.
var frameswitchAnalyzer = &Analyzer{
	Name: "frameswitch",
	Doc:  "switches over the frames type tag are exhaustive against NumTypes or carry a default",
	Run:  runFrameSwitch,
}

func runFrameSwitch(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := framesType(p, sw.Tag)
			if named == nil {
				return true
			}
			total := numTypes(named)
			seen := map[string]bool{}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					return true // default clause present
				}
				for _, e := range cc.List {
					if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
						seen[tv.Value.ExactString()] = true
					}
				}
			}
			if total > 0 && len(seen) >= total {
				return true // exhaustive
			}
			p.Reportf(sw.Pos(), "switch on %s.Type covers %d of %d frame types and has no default; add the missing cases or an explicit default", named.Obj().Pkg().Name(), len(seen), total)
			return true
		})
	}
}

// framesType returns the named frame-tag type if the expression has it,
// keyed on a type literally named "Type" declared in the configured
// frames package.
func framesType(p *Pass, e ast.Expr) *types.Named {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Type" || obj.Pkg() == nil || obj.Pkg().Path() != p.Cfg.FramesPath {
		return nil
	}
	return named
}

// numTypes reads the NumTypes constant from the frame package's scope; 0
// when absent (exhaustiveness then unprovable, so a default is required).
func numTypes(named *types.Named) int {
	c, ok := named.Obj().Pkg().Scope().Lookup("NumTypes").(*types.Const)
	if !ok {
		return 0
	}
	v, ok := constant.Int64Val(c.Val())
	if !ok {
		return 0
	}
	return int(v)
}

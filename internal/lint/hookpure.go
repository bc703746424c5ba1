package lint

import (
	"go/types"
	"sort"
)

// hookpureAnalyzer mechanizes the contract every engine hook documents:
// hooks observe the simulation, they neither consume its randomness nor
// steer it. The engine calls them from inside the slot loop — every
// sim.Observer through the engine's one emit helper (from Env.Report*,
// submission, startTx, emitSlot, skipTo and completeSlot), the profiler
// at every phase boundary — so:
//
//   - one PRNG draw inside a hook shifts every later draw in the run,
//     and attaching the hook changes trajectories;
//   - one store through sim.Engine/Env state, or a call to a mutating
//     engine method (the Env.Report* dispatchers included — hook code
//     re-entering the engine's bookkeeping), couples measurement to
//     dynamics, as does a store through the *sim.Event the engine shows
//     every subscriber in turn, or through the *sim.Request or
//     *frames.Frame it shows every observer and the MACs alike.
//
// Either failure is the drift the golden byte-diff tests catch after the
// fact; this check flags it at review time instead.
//
// Both fact classes come from the shared graph walk (see dataflow.go). A
// *rand.Rand is clean only when constructed locally via rand.New(...);
// draws on parameters, fields, or engine-supplied generators (Env.Rand(),
// Engine.Rand()) are tainted, as is any global math/rand call. Read-only
// Engine/Env methods (Env.Now, Env.Neighbors, Engine.Topo, …) are
// allowlisted. The check reports every hook implementation declared in
// the package from which either class is reachable, interface dispatch
// included.
var hookpureAnalyzer = &Analyzer{
	Name: "hookpure",
	Doc:  "hook implementations (observers, profilers) must not reach PRNG draws or engine mutations",
	Run:  runHookpure,
}

// hookInterfaces are the sim-package interfaces whose implementations
// the engine calls from inside the slot loop as pure observers.
var hookInterfaces = []string{"Observer", "Profiler"}

func runHookpure(p *Pass) {
	g := p.Graph()
	for _, hook := range implMethods(p, hookInterfaces) {
		for _, kind := range []FactKind{FactTaintedDraw, FactParamDraw, FactGlobalRand} {
			if g.Reaches(hook.Fn, kind, false) {
				p.Reportf(hook.Decl.Pos(), "hook %s reaches a PRNG draw; hooks must be PRNG-neutral: %s",
					shortName(hook.Fn), g.WitnessPath(hook.Fn, kind, false))
				break
			}
		}
		if g.Reaches(hook.Fn, FactEngineWrite, false) {
			p.Reportf(hook.Decl.Pos(), "hook %s reaches an engine-state mutation; hooks must not write the engine or the requests and frames it shows: %s",
				shortName(hook.Fn), g.WitnessPath(hook.Fn, FactEngineWrite, false))
		}
	}
}

// implMethods returns the implementations, declared in the pass's
// package, of the methods of the named sim-package interfaces.
// Results are deduplicated (a type implementing several interfaces
// counts each method once) and in source order. Methods promoted from
// an embedded type declared elsewhere are checked by that package's own
// pass, keeping every finding attributed exactly once.
func implMethods(p *Pass, ifaceNames []string) []*FuncNode {
	g := p.Graph()
	var simPkg *types.Package
	for _, pkg := range g.Pkgs {
		if pkg.Path == p.Cfg.SimPkgPath && pkg.Types != nil {
			simPkg = pkg.Types
			break
		}
	}
	if simPkg == nil && p.Types != nil && p.Path == p.Cfg.SimPkgPath {
		simPkg = p.Types
	}
	if simPkg == nil {
		return nil
	}
	var ifaces []*types.Interface
	for _, name := range ifaceNames {
		if tn, ok := simPkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	seen := map[*types.Func]bool{}
	var out []*FuncNode
	for _, named := range g.named {
		if named.Obj().Pkg() != p.Types {
			continue
		}
		for _, it := range ifaces {
			var impl types.Type
			switch {
			case types.Implements(named, it):
				impl = named
			case types.Implements(types.NewPointer(named), it):
				impl = types.NewPointer(named)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(impl, true, it.Method(i).Pkg(), it.Method(i).Name())
				mf, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				mf = canon(mf)
				node := g.Nodes[mf]
				if node == nil || node.Pkg != p.Package || seen[mf] {
					continue
				}
				seen[mf] = true
				out = append(out, node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

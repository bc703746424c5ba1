package lint

// hookpureAnalyzer enforces the other half of the observer contract:
// hooks read the simulation, they do not steer it. An Observer that
// stores through sim.Engine/Env state, or calls a mutating engine method
// (including the Env.Report* dispatchers — observer code re-entering the
// engine's per-slot bookkeeping), couples measurement to dynamics: runs
// with and without the observer attached diverge, which breaks the
// golden tests.
//
// Engine/Env stores and mutating-method calls are facts collected by the
// shared graph walk (see dataflow.go); this check reports every hook
// implementation declared in the package from which such a fact is
// reachable, interface dispatch included. Read-only methods (Env.Now,
// Env.Neighbors, Engine.Topo, …) are allowlisted.
var hookpureAnalyzer = &Analyzer{
	Name: "hookpure",
	Doc:  "observer hook implementations must not mutate engine state",
	Run:  runHookpure,
}

func runHookpure(p *Pass) {
	for _, hook := range hookMethods(p) {
		if p.Graph().Reaches(hook.Fn, FactEngineWrite, false) {
			p.Reportf(hook.Decl.Pos(), "observer hook %s reaches a sim.Engine/Env mutation; hooks must not write engine state: %s",
				shortName(hook.Fn), p.Graph().WitnessPath(hook.Fn, FactEngineWrite, false))
		}
	}
}

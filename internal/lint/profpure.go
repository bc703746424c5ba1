package lint

// profpureAnalyzer mechanizes the profiler's byte-neutrality contract:
// the differential tests pin that attaching a sim.Profiler leaves every
// transcript byte-identical, and that only holds while profiler hooks
// (RunStart/Enter/RunEnd) confine themselves to reading clocks and
// accumulating counters. One PRNG draw inside Enter would shift every
// later draw in the run; one engine
// mutation would couple measurement to dynamics. Both are the same
// failure classes prngflow/hookpure guard on observers, applied here to
// the profiler interface — so a profiler can never become the
// "measurement changes the experiment" bug the golden tests would only
// catch after the fact.
//
// The walk is the shared call-graph reachability query, interface
// dispatch included, from every sim.Profiler method implementation
// declared in the package.
var profpureAnalyzer = &Analyzer{
	Name: "profpure",
	Doc:  "profiler hook implementations must not reach PRNG draws or engine mutations",
	Run:  runProfpure,
}

// profilerInterfaces are the sim-package interfaces whose
// implementations the engine calls from inside Run.
var profilerInterfaces = []string{"Profiler"}

func runProfpure(p *Pass) {
	for _, hook := range implMethods(p, profilerInterfaces) {
		for _, kind := range []FactKind{FactTaintedDraw, FactParamDraw, FactGlobalRand} {
			if p.Graph().Reaches(hook.Fn, kind, false) {
				p.Reportf(hook.Decl.Pos(), "profiler hook %s reaches a PRNG draw; profiler hooks must be PRNG-neutral: %s",
					shortName(hook.Fn), p.Graph().WitnessPath(hook.Fn, kind, false))
				break
			}
		}
		if p.Graph().Reaches(hook.Fn, FactEngineWrite, false) {
			p.Reportf(hook.Decl.Pos(), "profiler hook %s reaches a sim.Engine/Env mutation; profiler hooks must not steer the run: %s",
				shortName(hook.Fn), p.Graph().WitnessPath(hook.Fn, FactEngineWrite, false))
		}
	}
}

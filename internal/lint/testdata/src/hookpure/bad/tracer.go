package bad

import (
	"relmac/internal/sim"
)

// abortTracer aborts a request when a frame is decoded: rx-ok fires
// inside the engine's completeSlot, so the tracer steers the run it
// records.
type abortTracer struct {
	env *sim.Env
	req *sim.Request
}

func (t *abortTracer) Kinds() sim.KindSet { return sim.Kinds(sim.EvRxOK) }

func (t *abortTracer) Observe(ev *sim.Event) { // want `hook \(bad\.abortTracer\)\.Observe reaches an engine-state mutation`
	if ev.Kind == sim.EvRxOK {
		t.env.ReportAbort(t.req, sim.AbortDeadline)
	}
}

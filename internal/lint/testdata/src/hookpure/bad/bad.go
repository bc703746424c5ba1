// Package bad implements hooks that steer the simulation they are
// supposed to observe: each reaches a mutating sim.Env dispatcher,
// re-entering the engine's bookkeeping from measurement code, or a store
// through a request or frame the engine shows it. Slot observers are
// here, a channel observer in tracer.go, the record writers in
// records.go; the PRNG-draw half of the hookpure contract has its own
// fixtures under prngflow (none here, since every hook below reaches
// every observer's Observe through the engine's dispatch), and profiler
// hooks under profpure.
package bad

import (
	"relmac/internal/sim"
)

// reinjector aborts a request from inside a slot hook — a direct
// engine-state mutation.
type reinjector struct {
	env *sim.Env
	req *sim.Request
}

func (r *reinjector) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }

func (r *reinjector) Observe(ev *sim.Event) { // want `hook \(bad\.reinjector\)\.Observe reaches an engine-state mutation`
	if ev.Kind == sim.EvSlot {
		r.env.ReportAbort(r.req, sim.AbortDeadline)
	}
}

// dropForger reaches the mutation through a helper; the call-graph
// closure still attributes it to the hook.
type dropForger struct {
	env *sim.Env
}

func (d *dropForger) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }

func (d *dropForger) Observe(ev *sim.Event) { // want `hook \(bad\.dropForger\)\.Observe reaches an engine-state mutation`
	if ev.Kind == sim.EvSlot {
		forge(d.env)
	}
}

func forge(env *sim.Env) {
	env.ReportResponseDrop(nil)
}

// Package bad implements hooks that steer the simulation they are
// supposed to observe: each reaches a mutating sim.Env dispatcher,
// re-entering the engine's bookkeeping from measurement code. Slot
// observers are here, tracers in tracer.go; the PRNG-draw half of the
// hookpure contract has its own fixtures under prngflow, and profiler
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

func (r *reinjector) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) { // want `hook \(bad\.reinjector\)\.OnSlot reaches a sim\.Engine/Env mutation`
	r.env.ReportAbort(r.req, sim.AbortDeadline)
}

func (r *reinjector) OnIdleSpan(from, to sim.Slot) {}

// dropForger reaches the mutation through a helper; the call-graph
// closure still attributes it to the hook.
type dropForger struct {
	env *sim.Env
}

func (d *dropForger) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) { // want `hook \(bad\.dropForger\)\.OnSlot reaches a sim\.Engine/Env mutation`
	forge(d.env)
}

func (d *dropForger) OnIdleSpan(from, to sim.Slot) {}

func forge(env *sim.Env) {
	env.ReportResponseDrop(nil)
}

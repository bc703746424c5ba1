// Package bad implements observer hooks that consume pseudo-randomness,
// violating the hookpure contract: a draw inside a hook shifts every
// later draw in the run, so attaching the observer changes the
// trajectory.
package bad

import (
	"math/rand"

	"relmac/internal/sim"
)

// jitterTap draws directly from a field-held generator inside its hook:
// the receiver-rooted *rand.Rand is tainted provenance.
type jitterTap struct {
	rng *rand.Rand
}

func (t *jitterTap) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }

func (t *jitterTap) Observe(ev *sim.Event) { // want `hook \(bad\.jitterTap\)\.Observe reaches a PRNG draw`
	_ = t.rng.Intn(8)
}

// jitterTracer draws from a field-held generator when a transmission
// starts: frame-tx fires inside the engine's startTx, so the draw shifts
// every later one in the run.
type jitterTracer struct {
	rng  *rand.Rand
	lags []int
}

func (t *jitterTracer) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

func (t *jitterTracer) Observe(ev *sim.Event) { // want `hook \(bad\.jitterTracer\)\.Observe reaches a PRNG draw`
	if ev.Kind == sim.EvFrameTx {
		t.lags = append(t.lags, t.rng.Intn(4))
	}
}

// globalTap reaches the global math/rand stream two calls deep; the
// call-graph closure still attributes the draw to the hook.
type globalTap struct{}

func (globalTap) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }

func (globalTap) Observe(ev *sim.Event) { // want `hook \(bad\.globalTap\)\.Observe reaches a PRNG draw`
	if ev.Kind == sim.EvSlot {
		jitter()
	}
}

func jitter() int { return pick() }

func pick() int { return rand.Intn(3) }

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

func (t *jitterTap) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) { // want `hook \(bad\.jitterTap\)\.OnSlot reaches a PRNG draw`
	_ = t.rng.Intn(8)
}

func (t *jitterTap) OnIdleSpan(from, to sim.Slot) {}

// globalTap reaches the global math/rand stream two calls deep; the
// call-graph closure still attributes the draw to the hook.
type globalTap struct{}

func (globalTap) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) { // want `hook \(bad\.globalTap\)\.OnSlot reaches a PRNG draw`
	jitter()
}

func (globalTap) OnIdleSpan(from, to sim.Slot) {}

func jitter() int { return pick() }

func pick() int { return rand.Intn(3) }

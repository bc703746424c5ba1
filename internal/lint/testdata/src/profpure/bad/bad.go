// Package bad implements profiler hooks that violate the hookpure
// contract: one consumes pseudo-randomness from a phase hook (shifting
// every later draw in the run), one steers the engine from RunEnd
// (coupling measurement to dynamics). Either breaks the profiler's
// byte-neutrality guarantee.
package bad

import (
	"math/rand"

	"relmac/internal/sim"
)

// drawTimer draws from a field-held generator inside Enter: the
// receiver-rooted *rand.Rand is tainted provenance, and a draw per
// phase transition perturbs the whole trajectory.
type drawTimer struct {
	rng *rand.Rand
	acc [sim.NumPhases]int64
}

func (t *drawTimer) RunStart() {}

func (t *drawTimer) Enter(p sim.Phase) { // want `hook \(bad\.drawTimer\)\.Enter reaches a PRNG draw`
	t.acc[int(p)] += int64(t.rng.Intn(8))
}

func (t *drawTimer) RunEnd() {}

// steerTimer aborts a request from inside RunEnd — profiler code
// re-entering the engine's bookkeeping. Env.ReportAbort charges its
// dispatch to the observer phase through the attached profiler's Enter,
// so RunEnd also reaches drawTimer's draw.
type steerTimer struct {
	env *sim.Env
	req *sim.Request
}

func (s *steerTimer) RunStart() {}

func (s *steerTimer) Enter(sim.Phase) {}

func (s *steerTimer) RunEnd() { // want `hook \(bad\.steerTimer\)\.RunEnd reaches an engine-state mutation` want `hook \(bad\.steerTimer\)\.RunEnd reaches a PRNG draw`
	s.env.ReportAbort(s.req, sim.AbortDeadline)
}

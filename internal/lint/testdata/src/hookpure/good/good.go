// Package good implements hooks in the sanctioned measurement pattern:
// they read the engine only through allowlisted accessors, write only
// their own receiver state, and never draw from a shared generator.
// hookpure must stay silent on the slot observers here and the tracer in
// tracer.go; PRNG-neutral hooks and profilers have their own fixtures
// under prngflow and profpure.
package good

import (
	"relmac/internal/sim"
)

// spanRecorder reads Env.Now (read-only allowlist) and appends into its
// own receiver-rooted storage.
type spanRecorder struct {
	env  *sim.Env
	seen []sim.Slot
}

func (s *spanRecorder) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) {
	if s.env != nil && s.env.Now() == now {
		s.seen = append(s.seen, now)
	}
}

func (s *spanRecorder) OnIdleSpan(from, to sim.Slot) {
	for t := from; t <= to; t++ {
		s.seen = append(s.seen, t)
	}
}

// Package good implements hooks in the sanctioned measurement pattern:
// they read the engine only through allowlisted accessors, write only
// their own receiver state, and never draw from a shared generator.
// hookpure must stay silent on the slot observer here, the channel
// observer in tracer.go and the request reader in records.go;
// PRNG-neutral hooks and profilers have their own fixtures under
// prngflow and profpure.
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

func (s *spanRecorder) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot, sim.EvIdleSpan) }

func (s *spanRecorder) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvSlot:
		if s.env != nil && s.env.Now() == ev.Slot {
			s.seen = append(s.seen, ev.Slot)
		}
	case sim.EvIdleSpan:
		for t := ev.Start; t <= ev.End; t++ {
			s.seen = append(s.seen, t)
		}
	}
}

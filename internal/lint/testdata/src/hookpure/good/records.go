package good

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// contentionTally reads the engine's per-message counts off the request
// and the frame it is shown, and writes only its own state, a value
// copy of the frame included.
type contentionTally struct {
	phases []int
	last   frames.Frame
}

func (c *contentionTally) Kinds() sim.KindSet {
	return sim.Kinds(sim.EvComplete, sim.EvAbort, sim.EvFrameTx)
}

func (c *contentionTally) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvComplete, sim.EvAbort:
		c.phases = append(c.phases, ev.Req.Contentions+len(ev.Req.Dests)-ev.Req.Residual)
	case sim.EvFrameTx:
		c.last = *ev.Frame
		c.last.Group = nil
	}
}

// lastEvent keeps a value copy of the event it is shown and edits only
// the copy.
type lastEvent struct {
	last sim.Event
}

func (l *lastEvent) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }

func (l *lastEvent) Observe(ev *sim.Event) {
	l.last = *ev
	l.last.Airing = nil
	l.last.Slot++
}

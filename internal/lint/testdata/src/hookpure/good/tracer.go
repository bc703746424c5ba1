package good

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// rxCounter is a clean channel observer: it reads the frames it is
// shown and counts into its own receiver state.
type rxCounter struct {
	starts    int
	ok, lost  map[frames.Type]int
	lastStart sim.Slot
}

func (c *rxCounter) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost) }

func (c *rxCounter) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvFrameTx:
		c.starts++
		c.lastStart = ev.Start
	case sim.EvRxOK:
		c.ok[ev.Frame.Type]++
	case sim.EvRxLost:
		c.lost[ev.Frame.Type]++
	}
}

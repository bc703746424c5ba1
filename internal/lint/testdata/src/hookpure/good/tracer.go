package good

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// rxCounter is a clean tracer: it reads the frames it is shown and
// counts into its own receiver state.
type rxCounter struct {
	starts    int
	ok, lost  map[frames.Type]int
	lastStart sim.Slot
}

func (c *rxCounter) TxStart(f *frames.Frame, sender int, start, end sim.Slot) {
	c.starts++
	c.lastStart = start
}

func (c *rxCounter) RxOK(f *frames.Frame, receiver int, now sim.Slot) { c.ok[f.Type]++ }

func (c *rxCounter) RxLost(f *frames.Frame, receiver int, now sim.Slot) { c.lost[f.Type]++ }

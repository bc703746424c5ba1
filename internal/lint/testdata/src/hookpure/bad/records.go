package bad

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// recounter bumps the contention count of the request it is shown: the
// engine keeps that count on the request, and every other surface and
// the MAC read the same record.
type recounter struct{}

func (recounter) Kinds() sim.KindSet { return sim.Kinds(sim.EvContention) }

func (recounter) Observe(ev *sim.Event) { // want `hook \(bad\.recounter\)\.Observe reaches an engine-state mutation`
	if ev.Kind == sim.EvContention {
		ev.Req.Contentions++
	}
}

// retyper rewrites a field of a frame in the air through a helper; the
// call-graph closure attributes the store to the hook.
type retyper struct{}

func (retyper) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

func (retyper) Observe(ev *sim.Event) { // want `hook \(bad\.retyper\)\.Observe reaches an engine-state mutation`
	if ev.Kind == sim.EvFrameTx {
		relabel(ev.Frame)
	}
}

func relabel(f *frames.Frame) {
	f.MsgID = 0
}

// reslotter moves the event it is shown to another slot: the event is
// the engine's scratch record, and every later subscriber reads it.
type reslotter struct{}

func (reslotter) Kinds() sim.KindSet { return sim.Kinds(sim.EvSubmit) }

func (reslotter) Observe(ev *sim.Event) { // want `hook \(bad\.reslotter\)\.Observe reaches an engine-state mutation`
	ev.Slot = 0
}

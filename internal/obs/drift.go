package obs

import (
	"relmac/internal/analysis"
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// DriftMonitor is a sim.Observer that feeds an analysis.DriftAccum as
// the run unfolds, turning the engine's event stream into the
// observed-vs-closed-form comparison of §6: per-message contention-phase
// counts by group size, and per-round service counts for the empirical
// p̂. Read Accum().Summary() after the run, or merge accumulators
// across runs first (experiments.Watch does).
//
// Aborted messages are censored: their contention phases are excluded
// from the per-group observations (the closed forms describe runs to
// completion), while their rounds still inform p̂ — channel quality is a
// property of the medium, not of the message's fate.
type DriftMonitor struct {
	accum    *analysis.DriftAccum
	inflight map[int64]*driftMsg
}

type driftMsg struct {
	n           int
	contentions int
	residual    int
}

// NewDriftMonitor builds a monitor comparing against the given round
// model (analysis.RoundModelFor maps protocol names).
func NewDriftMonitor(model analysis.RoundModel) *DriftMonitor {
	return &DriftMonitor{
		accum:    analysis.NewDriftAccum(model),
		inflight: make(map[int64]*driftMsg),
	}
}

// Accum exposes the underlying accumulator (for cross-run Merge).
func (d *DriftMonitor) Accum() *analysis.DriftAccum { return d.accum }

// OnSubmit implements sim.Observer.
func (d *DriftMonitor) OnSubmit(req *sim.Request, now sim.Slot) {
	n := len(req.Dests)
	if n == 0 {
		return
	}
	d.inflight[req.ID] = &driftMsg{n: n, residual: n}
}

// OnContention implements sim.Observer.
func (d *DriftMonitor) OnContention(req *sim.Request, now sim.Slot) {
	if m := d.inflight[req.ID]; m != nil {
		m.contentions++
	}
}

// OnFrameTx implements sim.Observer.
func (d *DriftMonitor) OnFrameTx(f *frames.Frame, sender int, now sim.Slot) {}

// OnDataRx implements sim.Observer.
func (d *DriftMonitor) OnDataRx(msgID int64, receiver int, now sim.Slot) {}

// OnRound implements sim.Observer.
func (d *DriftMonitor) OnRound(req *sim.Request, residual int, now sim.Slot) {
	m := d.inflight[req.ID]
	if m == nil {
		return
	}
	d.accum.AddRound(m.residual, residual)
	m.residual = residual
}

// OnComplete implements sim.Observer.
func (d *DriftMonitor) OnComplete(req *sim.Request, now sim.Slot) {
	if m := d.inflight[req.ID]; m != nil {
		d.accum.AddMessage(m.n, m.contentions)
		delete(d.inflight, req.ID)
	}
}

// OnAbort implements sim.Observer.
func (d *DriftMonitor) OnAbort(req *sim.Request, reason sim.AbortReason, now sim.Slot) {
	delete(d.inflight, req.ID)
}

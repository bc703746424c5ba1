package obs

import (
	"relmac/internal/analysis"
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
//
// The monitor holds no per-message state: it reads each request's
// engine-kept counts, which describe the message before the event.
type DriftMonitor struct {
	accum *analysis.DriftAccum
}

// NewDriftMonitor builds a monitor comparing against the given round
// model (analysis.RoundModelFor maps protocol names).
func NewDriftMonitor(model analysis.RoundModel) *DriftMonitor {
	return &DriftMonitor{accum: analysis.NewDriftAccum(model)}
}

// Accum exposes the underlying accumulator (for cross-run Merge).
func (d *DriftMonitor) Accum() *analysis.DriftAccum { return d.accum }

// Kinds implements sim.Observer: the monitor reads the round reports and
// the completions.
func (d *DriftMonitor) Kinds() sim.KindSet { return sim.Kinds(sim.EvRound, sim.EvComplete) }

// Observe implements sim.Observer.
func (d *DriftMonitor) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvRound:
		if len(ev.Req.Dests) != 0 {
			d.accum.AddRound(ev.Req.Residual, ev.Residual)
		}
	case sim.EvComplete:
		if n := len(ev.Req.Dests); n != 0 {
			d.accum.AddMessage(n, ev.Req.Contentions)
		}
	}
}

package obs

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Default histogram shapes: contention phases are small integers (the
// paper's Figure 9 tops out near 5), completion times are bounded by the
// upper-layer timeout (Table 2: 100 slots; Figure 7 sweeps to 300).
var (
	// DefaultContentionBounds buckets per-message contention-phase counts.
	DefaultContentionBounds = []float64{1, 2, 3, 4, 5, 7, 10, 15, 25, 50}
	// DefaultCompletionBounds buckets arrival→completion times in slots.
	DefaultCompletionBounds = LinearBuckets(10, 10, 30) // 10..300 by 10
	// DefaultResidualBounds buckets per-round (and per-abort) residual
	// receiver counts; a multicast group is at most the node degree, so
	// the shape follows the degree scale of the default topologies.
	DefaultResidualBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}
)

// Stats is a sim.Observer that feeds a Registry as the run unfolds: one
// counter per lifecycle event, one counter per frame type transmitted,
// and per-message histograms of contention phases and completion time.
// The MAC layers feed it indirectly — contention/complete/abort events
// originate inside the protocol state machines via Env.Report*.
//
// Names are "<prefix>.<stat>", so per-protocol instances share one
// registry without colliding ("BMMM.frames.RTS", "LAMM.completion_slots").
type Stats struct {
	submits, contentions, dataRx, completes, aborts *Counter
	abortReasons                                    [sim.NumAbortReasons]*Counter
	rounds                                          *Counter
	frameTx                                         [frames.NumTypes]*Counter
	contHist, compHist, residHist                   *Histogram
}

// NewStats builds a Stats observer registering its instruments under
// prefix in reg.
func NewStats(reg *Registry, prefix string) *Stats {
	s := &Stats{
		submits:     reg.Counter(prefix + ".submits"),
		contentions: reg.Counter(prefix + ".contentions"),
		dataRx:      reg.Counter(prefix + ".data_rx"),
		completes:   reg.Counter(prefix + ".completes"),
		aborts:      reg.Counter(prefix + ".aborts"),
		rounds:      reg.Counter(prefix + ".rounds"),
		contHist:    reg.Histogram(prefix+".contention_phases", DefaultContentionBounds...),
		compHist:    reg.Histogram(prefix+".completion_slots", DefaultCompletionBounds...),
		residHist:   reg.Histogram(prefix+".round_residual", DefaultResidualBounds...),
	}
	for r := range s.abortReasons {
		s.abortReasons[r] = reg.Counter(prefix + ".aborts." + sim.AbortReason(r).String())
	}
	for _, t := range frames.Types() {
		s.frameTx[t] = reg.Counter(prefix + ".frames." + t.String())
	}
	return s
}

// Kinds implements sim.Observer: Stats counts every message event.
func (s *Stats) Kinds() sim.KindSet { return sim.MessageKinds }

// Observe implements sim.Observer. The per-message histograms read the request's engine-kept counts at
// its terminal event.
func (s *Stats) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvSubmit:
		s.submits.Inc()
	case sim.EvContention:
		s.contentions.Inc()
	case sim.EvFrameTx:
		if int(ev.Frame.Type) < len(s.frameTx) {
			s.frameTx[ev.Frame.Type].Inc()
		}
	case sim.EvDataRx:
		s.dataRx.Inc()
	case sim.EvComplete:
		s.completes.Inc()
		s.contHist.Observe(float64(ev.Req.Contentions))
		s.compHist.Observe(float64(ev.Slot - ev.Req.Arrival))
	case sim.EvRound:
		s.rounds.Inc()
		s.residHist.Observe(float64(ev.Residual))
	case sim.EvAbort:
		s.aborts.Inc()
		if int(ev.Reason) < len(s.abortReasons) {
			s.abortReasons[ev.Reason].Inc()
		}
		s.contHist.Observe(float64(ev.Req.Contentions))
	}
}

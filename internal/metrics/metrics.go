// Package metrics records per-message outcomes during a simulation run
// and computes the quantities the paper's evaluation reports (§7):
//
//   - successful delivery rate — the fraction of requests that reached at
//     least the reliability threshold of their intended receivers before
//     timing out (Figures 6, 7, 8);
//   - average number of contention phases per message (Figure 9);
//   - average message completion time (Figure 10).
//
// A Collector implements sim.Observer and is attached to one engine run;
// cross-run aggregation lives in the stats helpers. A Record embeds the
// engine's sim.Request, which carries the message number and the
// contention count, so the collector adds only what the request does
// not hold: the outcome and the distinct intended receivers reached.
package metrics

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Record captures the lifecycle of one MAC service request. It embeds
// the request, so ID, Kind, Src, the intended receivers Dests, Arrival,
// Deadline and the engine-kept Contentions count read from it.
type Record struct {
	*sim.Request
	// Completed is set when the sending MAC reported success, at slot
	// CompletedAt. Note that for an unreliable protocol "completed" only
	// means the sender finished its procedure — BSMA can complete
	// without reaching anyone (paper §7.3).
	Completed   bool
	CompletedAt sim.Slot
	// Aborted is set when the sender gave up; AbortReason records which
	// budget ran out (deadline vs retry exhaustion) and is meaningful
	// only when Aborted.
	Aborted     bool
	AbortReason sim.AbortReason
	// Delivered counts distinct intended receivers that decoded the DATA
	// frame.
	Delivered int
	// delivered marks, per entry of Dests, whether that receiver decoded
	// the data frame. A parallel slice beats a set here: intended sets
	// are neighborhood-sized.
	delivered []bool
}

// DeliveredFraction returns the fraction of intended receivers reached.
// A request with no intended receivers counts as fully delivered.
func (r *Record) DeliveredFraction() float64 {
	if len(r.Dests) == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(len(r.Dests))
}

// Successful applies the paper's success criterion at the given
// reliability threshold: the message must have been completed by the
// sender no later than its deadline and must have reached at least
// threshold of its intended receivers.
func (r *Record) Successful(threshold float64) bool {
	if !r.Completed || r.CompletedAt > r.Deadline {
		return false
	}
	return r.DeliveredFraction() >= threshold-1e-12
}

// CompletionTime returns the slots from MAC arrival to sender completion;
// meaningful only when Completed.
func (r *Record) CompletionTime() sim.Slot { return r.CompletedAt - r.Arrival }

// Collector implements sim.Observer, accumulating Records. It relies on
// the engine's numbering: the request with ID i is the i-th submitted,
// so its record sits at index i-1. The zero value is ready to use.
type Collector struct {
	records []*Record
	frames  [frames.NumTypes]int64 // indexed by frames.Type
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Kinds implements sim.Observer: the records are built from the
// submissions, the transmissions, the DATA receptions and the terminal
// events.
func (c *Collector) Kinds() sim.KindSet {
	return sim.Kinds(sim.EvSubmit, sim.EvFrameTx, sim.EvDataRx, sim.EvComplete, sim.EvAbort)
}

// Observe implements sim.Observer. Events for IDs it has not seen
// submitted leave the records alone.
func (c *Collector) Observe(ev *sim.Event) {
	var r *Record
	if id := ev.MsgID(); id >= 1 && id <= int64(len(c.records)) {
		r = c.records[id-1]
	}
	switch ev.Kind {
	case sim.EvSubmit:
		c.records = append(c.records, &Record{Request: ev.Req, delivered: make([]bool, len(ev.Req.Dests))})
	case sim.EvFrameTx:
		if int(ev.Frame.Type) < len(c.frames) {
			c.frames[ev.Frame.Type]++
		}
	case sim.EvDataRx:
		if r != nil {
			r.deliver(ev.Station)
		}
	case sim.EvComplete:
		if r != nil && !r.Completed {
			r.Completed = true
			r.CompletedAt = ev.Slot
		}
	case sim.EvAbort:
		if r != nil {
			r.Aborted = true
			r.AbortReason = ev.Reason
		}
	}
}

// deliver counts the first decode by an intended receiver.
func (r *Record) deliver(receiver int) {
	for k, id := range r.Dests {
		if id == receiver {
			if !r.delivered[k] {
				r.delivered[k] = true
				r.Delivered++
			}
			return
		}
	}
}

// Records returns all records in submission order.
func (c *Collector) Records() []*Record { return c.records }

// FrameCount returns the number of frames of the given type transmitted.
func (c *Collector) FrameCount(t frames.Type) int64 {
	if int(t) < len(c.frames) {
		return c.frames[t]
	}
	return 0
}

// Filter selects which records enter a Summary.
type Filter struct {
	// Kinds restricts to the given kinds; empty means all.
	Kinds []sim.Kind
	// Horizon excludes messages whose deadline lies beyond the end of
	// the simulated window, so partially-observed messages don't bias
	// the statistics. Zero disables the cut.
	Horizon sim.Slot
}

func (f Filter) match(r *Record) bool {
	if f.Horizon > 0 && r.Deadline > f.Horizon {
		return false
	}
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// GroupFilter selects the multicast-style traffic the paper's figures
// measure (multicast and broadcast requests), cut at the horizon.
func GroupFilter(horizon sim.Slot) Filter {
	return Filter{Kinds: []sim.Kind{sim.Multicast, sim.Broadcast}, Horizon: horizon}
}

// Summary aggregates one run's records.
type Summary struct {
	// Messages is the number of records matching the filter.
	Messages int
	// SuccessRate is the paper's successful delivery rate at the chosen
	// reliability threshold.
	SuccessRate float64
	// AvgContentions is the mean number of contention phases per
	// message (Figure 9's y axis).
	AvgContentions float64
	// AvgCompletionTime is the mean slots from arrival to sender
	// completion over completed messages (Figure 10's y axis).
	AvgCompletionTime float64
	// CompletedCount is the number of sender-completed messages.
	CompletedCount int
	// MeanDeliveredFraction is the mean fraction of intended receivers
	// reached, regardless of threshold.
	MeanDeliveredFraction float64
}

// Summarize computes a Summary at the given reliability threshold over
// the records selected by the filter.
func (c *Collector) Summarize(threshold float64, f Filter) Summary {
	var s Summary
	var contentions, compTime, delivered float64
	for _, r := range c.records {
		if !f.match(r) {
			continue
		}
		s.Messages++
		contentions += float64(r.Contentions)
		delivered += r.DeliveredFraction()
		if r.Successful(threshold) {
			s.SuccessRate++
		}
		if r.Completed {
			s.CompletedCount++
			compTime += float64(r.CompletionTime())
		}
	}
	if s.Messages > 0 {
		s.SuccessRate /= float64(s.Messages)
		s.AvgContentions = contentions / float64(s.Messages)
		s.MeanDeliveredFraction = delivered / float64(s.Messages)
	}
	if s.CompletedCount > 0 {
		s.AvgCompletionTime = compTime / float64(s.CompletedCount)
	}
	return s
}

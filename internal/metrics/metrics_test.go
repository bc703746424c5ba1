package metrics

import (
	"math"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

func submit(c *Collector, id int64, kind sim.Kind, dests []int, arrival, deadline sim.Slot) *sim.Request {
	req := &sim.Request{ID: id, Kind: kind, Src: 0, Dests: dests, Arrival: arrival, Deadline: deadline}
	c.Observe(&sim.Event{Kind: sim.EvSubmit, Req: req, Slot: arrival})
	return req
}

// contend feeds a contention event and then counts it on the request,
// as Env.ReportContention does.
func contend(c *Collector, req *sim.Request, now sim.Slot) {
	c.Observe(&sim.Event{Kind: sim.EvContention, Req: req, Slot: now})
	req.Contentions++
}

// dataRx is receiver's decode of message msg's DATA frame at now.
func dataRx(msg int64, receiver int, now sim.Slot) *sim.Event {
	return &sim.Event{Kind: sim.EvDataRx, Frame: &frames.Frame{Type: frames.Data, MsgID: msg}, Station: receiver, Slot: now}
}

func TestRecordLifecycle(t *testing.T) {
	c := NewCollector()
	req := submit(c, 1, sim.Multicast, []int{1, 2, 3, 4}, 10, 110)
	contend(c, req, 11)
	contend(c, req, 30)
	c.Observe(dataRx(1, 1, 40))
	c.Observe(dataRx(1, 2, 40))
	c.Observe(dataRx(1, 2, 41)) // duplicate must not double count
	c.Observe(dataRx(1, 3, 42))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 60})

	r := c.Records()[0]
	if r.Contentions != 2 {
		t.Errorf("contentions = %d", r.Contentions)
	}
	if r.Delivered != 3 {
		t.Errorf("delivered = %d", r.Delivered)
	}
	if !almost(r.DeliveredFraction(), 0.75) {
		t.Errorf("fraction = %v", r.DeliveredFraction())
	}
	if !r.Completed || r.CompletedAt != 60 {
		t.Error("completion not recorded")
	}
	if r.CompletionTime() != 50 {
		t.Errorf("completion time = %d", r.CompletionTime())
	}
	if !r.Successful(0.75) {
		t.Error("75% delivered must succeed at threshold 0.75")
	}
	if r.Successful(0.9) {
		t.Error("75% delivered must fail at threshold 0.9")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSuccessRequiresTimelyCompletion(t *testing.T) {
	c := NewCollector()
	req := submit(c, 1, sim.Broadcast, []int{1}, 0, 100)
	c.Observe(dataRx(1, 1, 50))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 150}) // after deadline
	if c.Records()[0].Successful(0.5) {
		t.Error("completion after the deadline is a timeout, not a success")
	}

	c2 := NewCollector()
	submit(c2, 2, sim.Broadcast, []int{1}, 0, 100)
	c2.Observe(dataRx(2, 1, 50))
	// Never completed (e.g. still retrying at sim end).
	if c2.Records()[0].Successful(0.5) {
		t.Error("uncompleted message cannot be successful")
	}
}

func TestBSMAStyleFalseCompletion(t *testing.T) {
	// Sender believes it completed, but nobody received the data: the
	// delivery rate at any positive threshold must be 0 (paper §7.3).
	c := NewCollector()
	req := submit(c, 1, sim.Multicast, []int{1, 2}, 0, 100)
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 20})
	s := c.Summarize(0.9, Filter{})
	if s.SuccessRate != 0 {
		t.Errorf("success rate = %v, want 0", s.SuccessRate)
	}
	if s.CompletedCount != 1 {
		t.Error("sender completion must still be counted as completed")
	}
}

func TestEmptyDestsCountsDelivered(t *testing.T) {
	c := NewCollector()
	req := submit(c, 1, sim.Multicast, nil, 0, 100)
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 5})
	if !c.Records()[0].Successful(1.0) {
		t.Error("no intended receivers: trivially successful")
	}
}

func TestSummarizeFilters(t *testing.T) {
	c := NewCollector()
	// Multicast, in horizon, successful.
	r1 := submit(c, 1, sim.Multicast, []int{1}, 0, 100)
	c.Observe(dataRx(1, 1, 10))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: r1, Slot: 15})
	// Unicast (excluded by GroupFilter).
	r2 := submit(c, 2, sim.Unicast, []int{2}, 0, 100)
	c.Observe(dataRx(2, 2, 12))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: r2, Slot: 14})
	// Broadcast whose deadline exceeds the horizon (excluded).
	submit(c, 3, sim.Broadcast, []int{1, 2}, 9950, 10050)

	s := c.Summarize(0.9, GroupFilter(10000))
	if s.Messages != 1 {
		t.Fatalf("messages = %d, want only the in-horizon multicast", s.Messages)
	}
	if s.SuccessRate != 1 {
		t.Errorf("success rate = %v", s.SuccessRate)
	}

	all := c.Summarize(0.9, Filter{})
	if all.Messages != 3 {
		t.Errorf("unfiltered messages = %d", all.Messages)
	}
}

func TestSummarizeAverages(t *testing.T) {
	c := NewCollector()
	a := submit(c, 1, sim.Multicast, []int{1, 2}, 0, 200)
	contend(c, a, 1)
	contend(c, a, 2)
	contend(c, a, 3)
	c.Observe(dataRx(1, 1, 10))
	c.Observe(dataRx(1, 2, 10))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: a, Slot: 20})

	b := submit(c, 2, sim.Multicast, []int{3, 4}, 10, 210)
	contend(c, b, 11)
	c.Observe(dataRx(2, 3, 40))
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: b, Slot: 50})

	s := c.Summarize(0.9, Filter{})
	if !almost(s.AvgContentions, 2) {
		t.Errorf("avg contentions = %v, want 2", s.AvgContentions)
	}
	if !almost(s.AvgCompletionTime, 30) { // (20-0 + 50-10)/2
		t.Errorf("avg completion time = %v, want 30", s.AvgCompletionTime)
	}
	if !almost(s.MeanDeliveredFraction, 0.75) {
		t.Errorf("mean delivered fraction = %v", s.MeanDeliveredFraction)
	}
	if !almost(s.SuccessRate, 0.5) {
		t.Errorf("success = %v, want 0.5 at threshold 0.9", s.SuccessRate)
	}
}

func TestFrameCounting(t *testing.T) {
	c := NewCollector()
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS}, Station: 0, Slot: 0})
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS}, Station: 1, Slot: 0})
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RAK}, Station: 0, Slot: 5})
	if c.FrameCount(frames.RTS) != 2 || c.FrameCount(frames.RAK) != 1 || c.FrameCount(frames.NAK) != 0 {
		t.Error("frame counts wrong")
	}
}

func TestAbortRecorded(t *testing.T) {
	c := NewCollector()
	req := submit(c, 1, sim.Multicast, []int{1}, 0, 100)
	c.Observe(&sim.Event{Kind: sim.EvRound, Req: req, Residual: 1, Slot: 50})
	c.Observe(&sim.Event{Kind: sim.EvAbort, Req: req, Reason: sim.AbortRetries, Slot: 101})
	rec := c.Records()[0]
	if !rec.Aborted {
		t.Error("abort not recorded")
	}
	if rec.AbortReason != sim.AbortRetries {
		t.Errorf("abort reason = %v, want retries", rec.AbortReason)
	}
	if rec.Successful(0.5) {
		t.Error("aborted message cannot be successful")
	}
}

func TestUnknownIDsIgnored(t *testing.T) {
	c := NewCollector()
	// Events for never-submitted IDs must not crash or create records.
	c.Observe(dataRx(99, 1, 5))
	c.Observe(&sim.Event{Kind: sim.EvContention, Req: &sim.Request{ID: 98}, Slot: 5})
	c.Observe(&sim.Event{Kind: sim.EvComplete, Req: &sim.Request{ID: 97}, Slot: 5})
	c.Observe(&sim.Event{Kind: sim.EvAbort, Req: &sim.Request{ID: 96}, Reason: sim.AbortDeadline, Slot: 5})
	c.Observe(&sim.Event{Kind: sim.EvRound, Req: &sim.Request{ID: 95}, Residual: 2, Slot: 5})
	if len(c.Records()) != 0 {
		t.Error("phantom records created")
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Error("empty sample must report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Known dataset: population σ = 2, sample σ = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s.StdDev(), want)
	}
	if s.CI95() <= 0 {
		t.Error("CI95 must be positive for n≥2")
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSummaryStatsAggregation(t *testing.T) {
	var agg SummaryStats
	agg.Add(Summary{}) // empty run skipped
	agg.Add(Summary{Messages: 10, SuccessRate: 0.8, AvgContentions: 2, CompletedCount: 8, AvgCompletionTime: 40, MeanDeliveredFraction: 0.9})
	agg.Add(Summary{Messages: 10, SuccessRate: 0.6, AvgContentions: 4, CompletedCount: 0, MeanDeliveredFraction: 0.7})
	if agg.Messages != 20 {
		t.Errorf("messages = %d", agg.Messages)
	}
	if !almost(agg.SuccessRate.Mean(), 0.7) {
		t.Errorf("success mean = %v", agg.SuccessRate.Mean())
	}
	if agg.AvgCompletionTime.N() != 1 {
		t.Error("runs without completions must not skew completion time")
	}
}

func TestWelchT(t *testing.T) {
	mk := func(vals ...float64) *Sample {
		s := &Sample{}
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	// Clearly separated samples: large positive t, sensible df.
	a := mk(0.9, 0.91, 0.92, 0.89, 0.9, 0.91, 0.9, 0.92, 0.9, 0.91, 0.9, 0.91)
	b := mk(0.5, 0.52, 0.51, 0.49, 0.5, 0.51, 0.5, 0.52, 0.5, 0.51, 0.5, 0.49)
	tt, df := WelchT(a, b)
	if tt < 10 {
		t.Errorf("t = %v, expected large", tt)
	}
	if df < 5 || df > 25 {
		t.Errorf("df = %v implausible", df)
	}
	if !SignificantlyGreater(a, b) {
		t.Error("clearly separated samples must be significant")
	}
	if SignificantlyGreater(b, a) {
		t.Error("direction matters")
	}
	// Identical samples: t ≈ 0, not significant.
	c := mk(0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7)
	d := mk(0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7)
	if SignificantlyGreater(c, d) {
		t.Error("identical samples cannot be significant")
	}
	// Degenerate inputs.
	if tt, df := WelchT(mk(1), mk(1, 2, 3)); tt != 0 || df != 0 {
		t.Error("tiny sample must return zeros")
	}
	if tt, _ := WelchT(mk(1, 1, 1), mk(1, 1, 1)); tt != 0 {
		t.Error("zero-variance pair must return zero t")
	}
}

// TestFrameCounterCoversAllTypes guards the frames.NumTypes-sized
// counter array: every declared frame type must be countable.
func TestFrameCounterCoversAllTypes(t *testing.T) {
	c := NewCollector()
	for _, ft := range frames.Types() {
		c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: ft}, Station: 0, Slot: 0})
	}
	for _, ft := range frames.Types() {
		if got := c.FrameCount(ft); got != 1 {
			t.Errorf("FrameCount(%s) = %d, want 1", ft, got)
		}
	}
	if got := c.FrameCount(frames.Type(200)); got != 0 {
		t.Errorf("out-of-range FrameCount = %d, want 0", got)
	}
}

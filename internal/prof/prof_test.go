package prof

import (
	"encoding/json"
	"testing"
	"time"

	"relmac/internal/sim"
)

// fakeClock is a scripted monotonic clock: each call returns the next
// offset in the schedule (sticking at the last entry when exhausted).
type fakeClock struct {
	at   time.Time
	step []time.Duration
	i    int
}

func (c *fakeClock) now() time.Time {
	if c.i < len(c.step) {
		c.at = c.at.Add(c.step[c.i])
		c.i++
	}
	return c.at
}

// TestPhaseAttribution scripts a run through known phase boundaries and
// checks every nanosecond lands in the phase being left at each mark.
func TestPhaseAttribution(t *testing.T) {
	clk := &fakeClock{step: []time.Duration{
		0,  // NewWithClock base
		0,  // RunStart
		10, // Enter(BusyStamp): 10ns of untracked
		20, // Enter(MacTick): 20ns of busy-stamp
		30, // Enter(Resolve): 30ns of mac-tick
		40, // RunEnd: 40ns of resolve
	}}
	pt := NewWithClock(clk.now)
	pt.RunStart()
	pt.Enter(sim.PhaseBusyStamp)
	pt.Enter(sim.PhaseMacTick)
	pt.Enter(sim.PhaseResolve)
	pt.RunEnd()

	r := pt.Report()
	want := map[string]int64{
		"untracked": 10, "busy-stamp": 20, "mac-tick": 30, "resolve": 40,
	}
	for name, ns := range want {
		if got := r.PhaseNs(name); got != ns {
			t.Errorf("phase %s: got %d ns, want %d", name, got, ns)
		}
	}
	if r.WallNs != 100 {
		t.Errorf("wall: got %d, want 100", r.WallNs)
	}
	if !r.Conserved() {
		t.Errorf("conservation violated: phases must sum to wall (%+v)", r.Phases)
	}
	if r.Runs != 1 {
		t.Errorf("runs: got %d, want 1", r.Runs)
	}
}

// TestMarksOutsideRunIgnored: Enter without RunStart must not corrupt
// the accumulators (the engine never does this, but the hook contract
// should be safe anyway).
func TestMarksOutsideRunIgnored(t *testing.T) {
	clk := &fakeClock{step: []time.Duration{0, 5, 5}}
	pt := NewWithClock(clk.now)
	pt.Enter(sim.PhaseResolve)
	pt.RunEnd()
	r := pt.Report()
	if r.WallNs != 0 || !r.Conserved() {
		t.Fatalf("marks outside a run must be no-ops: %+v", r)
	}
}

// TestAccumulatesAcrossRuns: a timer shared across sequential runs pools
// phases and wall time.
func TestAccumulatesAcrossRuns(t *testing.T) {
	clk := &fakeClock{step: []time.Duration{
		0,
		0, 10, // run 1: 10ns untracked
		0, 20, // run 2: 20ns untracked
	}}
	pt := NewWithClock(clk.now)
	for i := 0; i < 2; i++ {
		pt.RunStart()
		pt.RunEnd()
	}
	r := pt.Report()
	if r.Runs != 2 || r.WallNs != 30 || r.PhaseNs("untracked") != 30 {
		t.Fatalf("pooling across runs broken: %+v", r)
	}
	if !r.Conserved() {
		t.Fatal("conservation violated across runs")
	}
}

// TestAggregate merges two timers and rederives the pooled fractions.
func TestAggregate(t *testing.T) {
	mk := func(untracked, resolve time.Duration) *PhaseTimer {
		clk := &fakeClock{step: []time.Duration{0, 0, untracked, resolve}}
		pt := NewWithClock(clk.now)
		pt.RunStart()
		pt.Enter(sim.PhaseResolve)
		pt.RunEnd()
		return pt
	}
	r := Aggregate([]*PhaseTimer{mk(10, 30), mk(20, 40)})
	if r.Runs != 2 || r.WallNs != 100 {
		t.Fatalf("aggregate header: %+v", r)
	}
	if r.PhaseNs("untracked") != 30 || r.PhaseNs("resolve") != 70 {
		t.Fatalf("aggregate phases: %+v", r.Phases)
	}
	if !r.Conserved() {
		t.Fatal("aggregate must conserve")
	}
	if f := r.Phases[sim.PhaseResolve].Frac; f != 0.7 {
		t.Fatalf("pooled resolve fraction: got %v, want 0.7", f)
	}
}

// TestReportJSONRoundTrip guards the report's wire shape — the relbench
// phase section and the /snapshot profile section embed it verbatim.
func TestReportJSONRoundTrip(t *testing.T) {
	clk := &fakeClock{step: []time.Duration{0, 0, 10, 10}}
	pt := NewWithClock(clk.now)
	pt.RunStart()
	pt.Enter(sim.PhaseResolve)
	pt.RunEnd()
	data, err := json.Marshal(pt.Report())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Conserved() || back.WallNs != 20 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for _, key := range []string{"runs", "wall_ns", "phases"} {
		if !jsonHas(data, key) {
			t.Errorf("report JSON missing %q: %s", key, data)
		}
	}
}

func jsonHas(data []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

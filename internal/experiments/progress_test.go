package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestSweepProgressFakeClock drives Sweep's progress reporting with an
// injected clock: the elapsed/ETA line becomes a pure function of the
// fake timestamps, as the sweep path itself never reads the wall clock.
func TestSweepProgressFakeClock(t *testing.T) {
	var buf bytes.Buffer
	tick := 0
	o := Options{Runs: 1, Protocols: []Protocol{BMMM}, Progress: ProgressMeter{
		W: &buf,
		Clock: func() time.Time {
			tick++
			return time.Unix(int64(tick), 0)
		},
	}}
	_, err := Sweep(o, 1, func(point int, cfg *RunConfig) {
		cfg.Nodes = 8
		cfg.Slots = 50
	}, false)
	if err != nil {
		t.Fatal(err)
	}

	got := buf.String()
	want := "sweep: point 1/1 done (1/1 runs, 100%), elapsed 1s, eta 0s\n"
	if got != want {
		t.Errorf("progress line = %q, want %q", got, want)
	}
	if tick != 2 {
		t.Errorf("clock read %d times, want 2 (start + one completed point)", tick)
	}
}

// TestProgressMeterDefaultClock pins the structural default: a meter with
// no injected clock falls back to the wall clock as a function value.
func TestProgressMeterDefaultClock(t *testing.T) {
	var pm ProgressMeter
	before := time.Now()
	got := pm.clock()()
	if got.Before(before) || time.Since(got) > time.Minute {
		t.Errorf("default clock reading %v is not wall-clock-ish (now %v)", got, time.Now())
	}
	fake := func() time.Time { return time.Unix(42, 0) }
	pm.Clock = fake
	if !pm.clock()().Equal(time.Unix(42, 0)) {
		t.Error("injected clock was not used")
	}
}

// TestSweepProgressDisabled keeps the no-reporting fast path silent.
func TestSweepProgressDisabled(t *testing.T) {
	calls := 0
	o := Options{Runs: 1, Protocols: []Protocol{BMMM},
		Progress: ProgressMeter{Clock: func() time.Time { calls++; return time.Unix(int64(calls), 0) }}}
	_, err := Sweep(o, 1, func(point int, cfg *RunConfig) {
		cfg.Nodes = 8
		cfg.Slots = 50
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if calls > 1 {
		t.Errorf("clock read %d times with no writer; only the entry snapshot may read it", calls)
	}
}

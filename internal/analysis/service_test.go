package analysis_test

// Validation of the clean-channel service-time closed forms against the
// actual protocol state machines: the predicted slot counts must match
// the simulator exactly.

import (
	"testing"

	"relmac/internal/analysis"
	"relmac/internal/baseline/bmw"
	"relmac/internal/baseline/kuri"
	"relmac/internal/baseline/tgbcast"
	"relmac/internal/core"
	"relmac/internal/frames"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

const r = 0.2

// measureService runs one clean multicast to n receivers and returns the
// slots from the first transmission to sender completion.
func measureService(t *testing.T, factory prototest.Factory, n int) int {
	t.Helper()
	pts := prototest.Star(n, r, 0.7)
	run := prototest.New(pts, r, factory)
	dests := make([]int, n)
	for i := range dests {
		dests[i] = i + 1
	}
	run.Multicast(5, 0, dests, 100000)
	run.Steps(4000)
	rec := run.Record(1)
	if rec == nil || !rec.Completed {
		t.Fatalf("message did not complete (n=%d)", n)
	}
	// First transmission slot from the trace.
	first := -1
	for _, e := range run.Trace.Events {
		var slot int
		for _, c := range e {
			if c < '0' || c > '9' {
				break
			}
			slot = slot*10 + int(c-'0')
		}
		if first < 0 || slot < first {
			first = slot
		}
	}
	return int(rec.CompletedAt) - first
}

func TestBMMMBatchSlotsMatchesSimulator(t *testing.T) {
	tm := frames.DefaultTiming()
	f := core.NewBMMM(mac.DefaultConfig())
	factory := func(n int, e *sim.Env) sim.MAC { return f(n, e) }
	for _, n := range []int{1, 2, 4, 6} {
		want := analysis.BMMMBatchSlots(tm, n)
		if got := measureService(t, factory, n); got != want {
			t.Errorf("BMMM n=%d: measured %d slots, predicted %d", n, got, want)
		}
	}
}

func TestPlainAndTGAndBSMAAndKuriServiceMatch(t *testing.T) {
	tm := frames.DefaultTiming()
	cases := []struct {
		name    string
		factory func(int, *sim.Env) sim.MAC
		want    int
	}{
		{"TG", tgbcast.New(mac.DefaultConfig()), analysis.TGServiceSlots(tm)},
		{"BSMA", tgbcast.NewBSMA(mac.DefaultConfig()), analysis.BSMAServiceSlots(tm)},
		{"Kuri", kuri.New(mac.DefaultConfig()), analysis.KuriServiceSlots(tm)},
	}
	for _, c := range cases {
		factory := c.factory
		got := measureService(t, func(n int, e *sim.Env) sim.MAC { return factory(n, e) }, 1)
		if got != c.want {
			t.Errorf("%s: measured %d slots, predicted %d", c.name, got, c.want)
		}
	}
}

func TestBMWServiceSlotsBracketsSimulator(t *testing.T) {
	// BMW's later rounds carry a random backoff; check the measured time
	// sits between the zero-backoff floor and a generous ceiling, across
	// group sizes.
	tm := frames.DefaultTiming()
	cfg := mac.DefaultConfig()
	f := bmw.New(cfg)
	factory := func(n int, e *sim.Env) sim.MAC { return f(n, e) }
	for _, n := range []int{1, 3, 5} {
		got := float64(measureService(t, factory, n))
		floor := analysis.BMWServiceSlots(tm, n, 0)
		ceil := analysis.BMWServiceSlots(tm, n, float64(cfg.CWMin))
		if got < floor || got > ceil {
			t.Errorf("BMW n=%d: measured %v outside [%v, %v]", n, got, floor, ceil)
		}
	}
}

func TestServiceFormulas(t *testing.T) {
	tm := frames.DefaultTiming()
	if analysis.PlainServiceSlots(tm) != 5 {
		t.Errorf("plain = %d", analysis.PlainServiceSlots(tm))
	}
	if analysis.UnicastServiceSlots(tm) != 8 {
		t.Errorf("unicast = %d", analysis.UnicastServiceSlots(tm))
	}
	if analysis.TGServiceSlots(tm) != 7 || analysis.BSMAServiceSlots(tm) != 8 {
		t.Error("TG/BSMA formulas wrong")
	}
	if analysis.BMMMBatchSlots(tm, 3) != 12+5 {
		t.Errorf("BMMM n=3 = %d", analysis.BMMMBatchSlots(tm, 3))
	}
	if analysis.BMMMBatchSlots(tm, 0) != 0 {
		t.Error("n=0 batch must be free")
	}
	if analysis.LAMMBatchSlots(tm, 2) != analysis.BMMMBatchSlots(tm, 2) {
		t.Error("LAMM batch must equal BMMM batch over the cover set")
	}
	if analysis.BMWServiceSlots(tm, 0, 8) != 0 {
		t.Error("BMW n=0 must be free")
	}
	if analysis.MeanBackoffSlots(16) != 7.5 || analysis.MeanBackoffSlots(0) != 0 {
		t.Error("mean backoff wrong")
	}
}

func TestServiceCrossover(t *testing.T) {
	tm := frames.DefaultTiming()
	// With CWmin 16 (mean backoff 7.5), BMW pays ~11.5 slots per extra
	// receiver vs BMMM's 4: batching wins from small n even without
	// contention.
	n := analysis.ServiceCrossover(tm, 16)
	if n < 1 || n > 4 {
		t.Errorf("crossover = %d, expected small", n)
	}
	// With zero backoff BMW's suppressed rounds cost 4 slots — exactly
	// BMMM's per-receiver cost — so batching never strictly wins on a
	// clean channel; the advantage is entirely contention (the paper's
	// argument).
	if got := analysis.ServiceCrossover(tm, 1); got != -1 {
		t.Errorf("zero-backoff crossover = %d, want none", got)
	}
}

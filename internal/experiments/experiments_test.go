package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"relmac/internal/metrics"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

func TestFactoryKnownProtocols(t *testing.T) {
	for _, p := range AllProtocols {
		f, err := Factory(p, Defaults(p, 1).MAC)
		if err != nil || f == nil {
			t.Errorf("Factory(%s) failed: %v", p, err)
		}
	}
	if _, err := Factory("nope", Defaults(BMMM, 1).MAC); err == nil {
		t.Error("unknown protocol must error")
	}
}

func TestDefaultsMatchTable2(t *testing.T) {
	cfg := Defaults(BMMM, 7)
	if cfg.Nodes != 100 || cfg.Radius != 0.2 || cfg.Slots != 10000 ||
		cfg.Timeout != 100 || cfg.Rate != 0.0005 || cfg.Threshold != 0.9 {
		t.Errorf("defaults diverge from the paper's Table 2: %+v", cfg)
	}
	m := cfg.Mix
	if m.Unicast != 0.2 || m.Multicast != 0.4 || m.Broadcast != 0.4 {
		t.Errorf("traffic mix = %+v", m)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := Defaults(BMMM, 99)
	cfg.Slots = 1500
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg)
	if a.Summary != b.Summary {
		t.Errorf("same seed, different outcome: %+v vs %+v", a.Summary, b.Summary)
	}
	cfg.Seed = 100
	c, _ := Run(cfg)
	if a.Summary == c.Summary {
		t.Error("different seeds should differ (astronomically unlikely otherwise)")
	}
}

// TestRunRejectsBadRunConfig checks that run parameters no simulation
// can be built from come back from Run as an error — naming the field —
// instead of a panic from the topology constructor or a silently
// meaningless per-slot probability.
func TestRunRejectsBadRunConfig(t *testing.T) {
	cases := []struct {
		name  string
		field string
		edit  func(*RunConfig)
	}{
		{"no-nodes", "Nodes", func(c *RunConfig) { c.Nodes = 0 }},
		{"negative-nodes", "Nodes", func(c *RunConfig) { c.Nodes = -5 }},
		{"zero-radius", "Radius", func(c *RunConfig) { c.Radius = 0 }},
		{"negative-radius", "Radius", func(c *RunConfig) { c.Radius = -0.2 }},
		{"nan-radius", "Radius", func(c *RunConfig) { c.Radius = math.NaN() }},
		{"rate-above-one", "Rate", func(c *RunConfig) { c.Rate = 2 }},
		{"negative-rate", "Rate", func(c *RunConfig) { c.Rate = -0.1 }},
		{"nan-rate", "Rate", func(c *RunConfig) { c.Rate = math.NaN() }},
		{"negative-speed", "Speed", func(c *RunConfig) { c.Speed = -0.001 }},
		{"nan-speed", "Speed", func(c *RunConfig) { c.Speed = math.NaN() }},
		{"negative-slots", "Slots", func(c *RunConfig) { c.Slots = -1 }},
		{"lifecycles-only", "Lifecycles", func(c *RunConfig) {
			c.Observers = []sim.Observer{obs.NewTracer(0)}
			c.Lifecycles = []sim.Observer{obs.NewFlight(nil, "", 0)}
		}},
		{"slot-observers-only", "SlotObservers", func(c *RunConfig) {
			c.SlotObservers = []sim.Observer{obs.NewLedger(obs.NewRegistry(), "x")}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults(BMMM, 1)
			cfg.Slots = 10
			tc.edit(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
	// The boundaries stay valid: a build-only run (Slots 0), a single
	// station, the rate endpoints and a moving run.
	for _, edit := range []func(*RunConfig){
		func(c *RunConfig) { c.Slots = 0 },
		func(c *RunConfig) { c.Nodes = 1 },
		func(c *RunConfig) { c.Rate = 1 },
		func(c *RunConfig) { c.Rate = 0 },
		func(c *RunConfig) { c.Speed = 0.004 },
	} {
		cfg := Defaults(BMMM, 1)
		cfg.Slots = 10
		edit(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}

// The paper's headline result: LAMM and BMMM beat BSMA and BMW on
// successful delivery rate; BMW needs the most contention phases. The
// protocols at one seed face the same topology and arrivals, so each
// ordering is tested on per-run paired differences: the lower bound of
// the difference's 95% confidence interval must be above zero.
func TestPaperOrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	const runs = 4
	const slots = 4000
	type pair struct{ a, b Protocol }
	succ := map[pair]*metrics.Sample{}
	cont := map[pair]*metrics.Sample{}
	succPairs := []pair{{LAMM, BSMA}, {LAMM, BMW}, {BMMM, BSMA}}
	contPairs := []pair{{BMW, BMMM}, {BMW, LAMM}}
	for _, pr := range succPairs {
		succ[pr] = &metrics.Sample{}
	}
	for _, pr := range contPairs {
		cont[pr] = &metrics.Sample{}
	}
	for r := 0; r < runs; r++ {
		res := map[Protocol]metrics.Summary{}
		for _, p := range PaperProtocols {
			cfg := Defaults(p, int64(1000+r))
			cfg.Slots = slots
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res[p] = out.Summary
		}
		for _, pr := range succPairs {
			succ[pr].Add(res[pr.a].SuccessRate - res[pr.b].SuccessRate)
		}
		for _, pr := range contPairs {
			cont[pr].Add(res[pr.a].AvgContentions - res[pr.b].AvgContentions)
		}
	}
	check := func(what string, pr pair, d *metrics.Sample) {
		if lo := d.Mean() - d.CI95(); !(lo > 0) {
			t.Errorf("%s %s−%s = %.4f ± %.4f: lower 95%% bound %.4f, want > 0",
				what, pr.a, pr.b, d.Mean(), d.CI95(), lo)
		}
	}
	for _, pr := range succPairs {
		check("delivery", pr, succ[pr])
	}
	for _, pr := range contPairs {
		check("contentions", pr, cont[pr])
	}
}

func TestSweepShapes(t *testing.T) {
	results, err := Sweep(2, []Protocol{BMMM}, 2, func(p int, cfg *RunConfig) {
		cfg.Slots = 600
		cfg.Nodes = 40 + 20*p
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0]) != 1 {
		t.Fatalf("result shape wrong: %d×%d", len(results), len(results[0]))
	}
	if results[0][0].SuccessRate.N() != 2 {
		t.Errorf("runs per cell = %d, want 2", results[0][0].SuccessRate.N())
	}
	if results[1][0].AvgDegree.Mean() <= results[0][0].AvgDegree.Mean() {
		t.Error("denser point must have higher degree")
	}
}

func TestSweepKeepsCollectors(t *testing.T) {
	results, err := Sweep(1, []Protocol{BMMM}, 2, func(p int, cfg *RunConfig) {
		cfg.Slots = 600
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0][0].Collectors) != 2 {
		t.Errorf("collectors kept = %d", len(results[0][0].Collectors))
	}
	if results[0][0].Horizon != 600 {
		t.Errorf("horizon = %d", results[0][0].Horizon)
	}
}

func TestTableOne(t *testing.T) {
	tb := TableOne()
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	s := tb.String()
	for _, want := range []string{"BMMM", "LAMM", "BMW", "BSMA", "q=0.05"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestFig5Render(t *testing.T) {
	tb := Fig5(10)
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	tb = Fig5(0) // default
	if len(tb.Rows) != 25 {
		t.Fatalf("default rows = %d", len(tb.Rows))
	}
}

func TestFig2Timelines(t *testing.T) {
	out, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// BMMM side must contain RAK frames; BMW side must not.
	parts := strings.Split(out, "--- BMMM")
	if len(parts) != 2 {
		t.Fatalf("unexpected layout:\n%s", out)
	}
	if strings.Contains(parts[0], "RAK") {
		t.Error("BMW timeline must not contain RAK frames")
	}
	if !strings.Contains(parts[1], "RAK") {
		t.Error("BMMM timeline must contain RAK frames")
	}
	// BMW: one RTS per receiver (3 at minimum); BMMM: 3 RTS + 3 RAK but
	// a single DATA in both (overhearing suppresses BMW retransmission).
	if strings.Count(parts[1], "DATA") != 1 {
		t.Errorf("BMMM should transmit exactly one DATA:\n%s", parts[1])
	}
}

func TestQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	o := Options{Runs: 1, Slots: 800, Protocols: []Protocol{BMMM, LAMM}}
	f6a, f9a, f10a, err := Density(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*struct {
		name string
		rows int
	}{{f6a.Title, len(f6a.Rows)}, {f9a.Title, len(f9a.Rows)}, {f10a.Title, len(f10a.Rows)}} {
		if tb.rows != len(DensityPoints) {
			t.Errorf("%s: rows = %d", tb.name, tb.rows)
		}
	}
	f7, err := Fig7(Options{Runs: 1, Slots: 800, Protocols: []Protocol{BMMM}})
	if err != nil || len(f7.Rows) != len(TimeoutPoints) {
		t.Errorf("fig7: %v rows=%d", err, len(f7.Rows))
	}
	f8, err := Fig8(Options{Runs: 1, Slots: 800, Protocols: []Protocol{BMMM}})
	if err != nil || len(f8.Rows) != len(ThresholdPoints) {
		t.Errorf("fig8: %v rows=%d", err, len(f8.Rows))
	}
	// Figure 8 success rates must be non-increasing in the threshold.
	prev := 2.0
	for _, row := range f8.Rows {
		v := parseF(t, row[1])
		if v > prev+1e-9 {
			t.Errorf("success rate rose with threshold: %v", f8.Rows)
		}
		prev = v
	}
	_, f9b, _, err := Rate(Options{Runs: 1, Slots: 800, Protocols: []Protocol{BMMM}})
	if err != nil || len(f9b.Rows) != len(RatePoints) {
		t.Errorf("rate sweep: %v", err)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestGroupFilterHorizonApplied(t *testing.T) {
	// Sanity: the Summarize cut excludes messages whose deadline is past
	// the horizon. Covered in metrics tests; here just ensure Run wires
	// the horizon through.
	cfg := Defaults(BMMM, 5)
	cfg.Slots = 500
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := res.Collector.Summarize(0.9, metrics.GroupFilter(sim.Slot(cfg.Slots)))
	if full != res.Summary {
		t.Error("Run must summarise at the simulation horizon")
	}
}

func TestExtendedProtocolsRun(t *testing.T) {
	for _, p := range ExtendedProtocols {
		cfg := Defaults(p, 3)
		cfg.Slots = 800
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestMobilitySweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tb, err := Mobility(Options{Runs: 1, Slots: 600, Protocols: []Protocol{BMMM}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(MobilitySpeeds) {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestLocationErrorSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tb, err := LocationError(Options{Runs: 1, Slots: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(GPSSigmas) {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestOverheadSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tb, err := Overhead(Options{Runs: 2, Slots: 1500, Protocols: []Protocol{BMMM, LAMM}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// LAMM must use no more RTS frames per message than BMMM.
	bmmm := parseF(t, tb.Rows[0][1])
	lamm := parseF(t, tb.Rows[1][1])
	if lamm > bmmm {
		t.Errorf("LAMM RTS/message (%v) should not exceed BMMM's (%v)", lamm, bmmm)
	}
}

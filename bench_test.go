package relmac_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md and micro-benchmarks of the
// hot substrates. The figure benches run reduced-fidelity sweeps (few
// runs, shortened horizon) so `go test -bench=.` finishes in minutes;
// cmd/experiments regenerates the full-fidelity numbers.
//
// Simulation benches report the headline metric of their figure via
// b.ReportMetric (delivery rate, contention phases or completion time
// for the LAMM column), so a bench run doubles as a smoke reproduction.

import (
	"math/rand"
	"strconv"
	"testing"

	"relmac/internal/analysis"
	"relmac/internal/capture"
	"relmac/internal/experiments"
	"relmac/internal/geom"
	"relmac/internal/metrics"
	"relmac/internal/obs"
	"relmac/internal/report"
	"relmac/internal/sim"
)

// benchOpts is the reduced-fidelity configuration for figure benches.
func benchOpts() experiments.Options {
	return experiments.Options{Runs: 2, Slots: 2000}
}

func lastColMean(tb *report.Table, b *testing.B) float64 {
	// Mean of the final (LAMM) column across the sweep's rows.
	var sum float64
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			b.Fatalf("bad cell %q: %v", row[len(row)-1], err)
		}
		sum += v
	}
	return sum / float64(len(tb.Rows))
}

// BenchmarkTable1 regenerates Table 1 (closed-form analysis).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.Table1()
		if len(rows) != 2 {
			b.Fatal("table 1 malformed")
		}
	}
	rows := analysis.Table1()
	b.ReportMetric(rows[0].BSMA, "BSMA-cp-n5")
	b.ReportMetric(rows[1].BSMA, "BSMA-cp-n10")
}

// BenchmarkFigure2 regenerates the BMW-vs-BMMM timeline diagram.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the fₙ series (analysis + recurrence).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := analysis.Figure5(25, 0.9)
		if len(pts) != 25 {
			b.Fatal("figure 5 malformed")
		}
	}
	b.ReportMetric(analysis.ExpectedRounds(25, 0.9), "f25")
}

func benchDensity(b *testing.B, pick func(f6a, f9a, f10a *report.Table) *report.Table, unit string) {
	b.Helper()
	var metric float64
	for i := 0; i < b.N; i++ {
		f6a, f9a, f10a, err := experiments.Density(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		metric = lastColMean(pick(f6a, f9a, f10a), b)
	}
	b.ReportMetric(metric, unit)
}

// BenchmarkFigure6a: successful delivery rate vs nodal density.
func BenchmarkFigure6a(b *testing.B) {
	benchDensity(b, func(a, _, _ *report.Table) *report.Table { return a }, "LAMM-delivery")
}

// BenchmarkFigure9a: avg contention phases vs nodal density.
func BenchmarkFigure9a(b *testing.B) {
	benchDensity(b, func(_, a, _ *report.Table) *report.Table { return a }, "LAMM-contentions")
}

// BenchmarkFigure10a: avg completion time vs nodal density.
func BenchmarkFigure10a(b *testing.B) {
	benchDensity(b, func(_, _, a *report.Table) *report.Table { return a }, "LAMM-completion")
}

func benchRate(b *testing.B, pick func(f6b, f9b, f10b *report.Table) *report.Table, unit string) {
	b.Helper()
	var metric float64
	for i := 0; i < b.N; i++ {
		f6b, f9b, f10b, err := experiments.Rate(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		metric = lastColMean(pick(f6b, f9b, f10b), b)
	}
	b.ReportMetric(metric, unit)
}

// BenchmarkFigure6b: successful delivery rate vs generation rate.
func BenchmarkFigure6b(b *testing.B) {
	benchRate(b, func(a, _, _ *report.Table) *report.Table { return a }, "LAMM-delivery")
}

// BenchmarkFigure9b: avg contention phases vs generation rate.
func BenchmarkFigure9b(b *testing.B) {
	benchRate(b, func(_, a, _ *report.Table) *report.Table { return a }, "LAMM-contentions")
}

// BenchmarkFigure10b: avg completion time vs generation rate.
func BenchmarkFigure10b(b *testing.B) {
	benchRate(b, func(_, _, a *report.Table) *report.Table { return a }, "LAMM-completion")
}

// BenchmarkFigure7: successful delivery rate vs timeout.
func BenchmarkFigure7(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		metric = lastColMean(tb, b)
	}
	b.ReportMetric(metric, "LAMM-delivery")
}

// BenchmarkFigure8: successful delivery rate vs reliability threshold.
func BenchmarkFigure8(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		metric = lastColMean(tb, b)
	}
	b.ReportMetric(metric, "LAMM-delivery")
}

// BenchmarkProtocolRun measures one full default-configuration run per
// protocol — the unit of work behind every figure point.
func BenchmarkProtocolRun(b *testing.B) {
	for _, p := range experiments.AllProtocols {
		b.Run(string(p), func(b *testing.B) {
			var last metrics.Summary
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(p, int64(i))
				cfg.Slots = 2000
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Summary
			}
			b.ReportMetric(last.SuccessRate, "delivery")
		})
	}
}

// BenchmarkAblationBSMACapture isolates the effect of the DS capture
// assumption on BSMA (§3: without capture, colliding CTS replies stall
// the sender).
func BenchmarkAblationBSMACapture(b *testing.B) {
	for _, tc := range []struct {
		name string
		cap  capture.Model
	}{
		{"none", capture.None{}},
		{"zorzi-rao", capture.ZorziRao{}},
		{"sir", capture.SIR{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(experiments.BSMA, int64(i))
				cfg.Slots = 2000
				cfg.Capture = tc.cap
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate += res.Summary.SuccessRate
			}
			b.ReportMetric(rate/float64(b.N), "delivery")
		})
	}
}

// BenchmarkAblationMCS compares the exact and greedy minimum-cover-set
// algorithms on the receiver-set sizes the simulation produces: 6–15
// receivers, and 17–36 (the greedy-only sizes above geom.ExactMCSLimit
// that the densest Figure 6(a) points reach).
func BenchmarkAblationMCS(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(0.5+0.18*(rng.Float64()-0.5), 0.5+0.18*(rng.Float64()-0.5))
		}
		return pts
	}
	sets := make([][]geom.Point, 32)
	for i := range sets {
		sets[i] = mk(6 + i%10)
	}
	b.Run("exact", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size += len(geom.ExactCoverSet(sets[i%len(sets)], 0.2))
		}
		b.ReportMetric(float64(size)/float64(b.N), "avg-|S'|")
	})
	b.Run("greedy", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size += len(geom.GreedyCoverSet(sets[i%len(sets)], 0.2))
		}
		b.ReportMetric(float64(size)/float64(b.N), "avg-|S'|")
	})
	large := make([][]geom.Point, 20)
	for i := range large {
		large[i] = mk(17 + i)
	}
	b.Run("mcs-17-36", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size += len(geom.MinCoverSet(large[i%len(large)], 0.2))
		}
		b.ReportMetric(float64(size)/float64(b.N), "avg-|S'|")
	})
}

// BenchmarkAblationCW measures BMMM's sensitivity to the contention
// window floor (a parameter the paper leaves unspecified).
func BenchmarkAblationCW(b *testing.B) {
	for _, cw := range []int{4, 16, 64} {
		b.Run(cwName(cw), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(experiments.BMMM, int64(i))
				cfg.Slots = 2000
				cfg.MAC.CWMin = cw
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate += res.Summary.SuccessRate
			}
			b.ReportMetric(rate/float64(b.N), "delivery")
		})
	}
}

func cwName(cw int) string {
	switch cw {
	case 4:
		return "cwmin4"
	case 16:
		return "cwmin16"
	default:
		return "cwmin64"
	}
}

// BenchmarkEngineThroughput measures raw simulator slot throughput with
// the full default workload (BMMM stations).
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := experiments.Defaults(experiments.BMMM, 3)
	cfg.Slots = b.N
	if cfg.Slots < 100 {
		cfg.Slots = 100
	}
	if _, err := experiments.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughputReference measures the identical workload on
// the engine's reference path (sim.Config.Reference): idle-station
// scheduling, event-driven slot skipping and transmission storage
// recycling are disabled. Read against BenchmarkEngineThroughput, it
// times the gap whose exact work savings TestOptimizationCensus
// (internal/experiments) pins per protocol.
func BenchmarkEngineThroughputReference(b *testing.B) {
	cfg := experiments.Defaults(experiments.BMMM, 3)
	cfg.Reference = true
	cfg.Slots = b.N
	if cfg.Slots < 100 {
		cfg.Slots = 100
	}
	if _, err := experiments.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineObserverOverhead quantifies the cost of the
// observability layer around the engine's observer dispatch:
//
//   - disabled: the metrics collector alone (the seed configuration) —
//     must stay within noise (≤5%) of the seed: one observer is a
//     one-element range in the engine's dispatch loop;
//   - multi: collector + event tracer + stat registry, fanned out by the
//     engine in registration order — the price of full tracing.
func BenchmarkEngineObserverOverhead(b *testing.B) {
	run := func(b *testing.B, extra func() []sim.Observer) {
		for i := 0; i < b.N; i++ {
			cfg := experiments.Defaults(experiments.BMMM, int64(i))
			cfg.Slots = 2000
			if extra != nil {
				cfg.Observers = extra()
			}
			if _, err := experiments.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("multi", func(b *testing.B) {
		reg := obs.NewRegistry()
		run(b, func() []sim.Observer {
			return []sim.Observer{obs.NewTracer(0), obs.NewStats(reg, "bench")}
		})
	})
}

// BenchmarkAblationExposedTerminal measures the future-work
// exposed-terminal optimisation (§8): stations overhearing an RTS whose
// receivers are out of range only reserve the CTS turnaround. The gain
// materialises when reservations break (no CTS), which grows with load.
func BenchmarkAblationExposedTerminal(b *testing.B) {
	for _, opt := range []bool{false, true} {
		name := "off"
		if opt {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(experiments.BMMM, int64(i))
				cfg.Slots = 2000
				cfg.Rate = 0.0015 // loaded network: broken reservations abound
				cfg.ExposedTerminal = opt
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate += res.Summary.SuccessRate
			}
			b.ReportMetric(rate/float64(b.N), "delivery")
		})
	}
}

// BenchmarkAblationLocationError sweeps LAMM's tolerance to GPS error
// (the paper assumes location info "is accurate enough"; DESIGN.md's
// location-error study quantifies it). Sigma is in unit-square units;
// the transmission radius is 0.2.
func BenchmarkAblationLocationError(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sigma float64
	}{
		{"sigma0", 0}, {"sigma0.01", 0.01}, {"sigma0.05", 0.05}, {"sigma0.15", 0.15},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rate, deliv float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(experiments.LAMM, int64(i))
				cfg.Slots = 2000
				cfg.Fault.LocNoise = tc.sigma
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s := res.Summary
				rate += s.SuccessRate
				deliv += s.MeanDeliveredFraction
			}
			b.ReportMetric(rate/float64(b.N), "delivery")
			b.ReportMetric(deliv/float64(b.N), "reached-frac")
		})
	}
}

// BenchmarkAblationMobility measures LAMM under random-waypoint movement
// (an extension beyond the paper's static topologies): stale membership
// and stale locations erode delivery as speed rises. Speeds are in
// unit-square units per slot; 0.004 ≈ two radio radii per message
// lifetime.
func BenchmarkAblationMobility(b *testing.B) {
	for _, tc := range []struct {
		name  string
		speed float64
	}{
		{"static", 0}, {"slow", 0.0005}, {"fast", 0.004},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Defaults(experiments.LAMM, int64(i))
				cfg.Slots = 2000
				cfg.Speed = tc.speed
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate += res.Summary.SuccessRate
			}
			b.ReportMetric(rate/float64(b.N), "delivery")
		})
	}
}

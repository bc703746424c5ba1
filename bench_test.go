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
	"slices"
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

// benchStudy runs the catalogue study name and reports the LAMM-column
// mean of its output file as unit.
func benchStudy(b *testing.B, name, file, unit string) {
	b.Helper()
	i := slices.IndexFunc(experiments.Studies, func(s experiments.Study) bool { return s.Name == name })
	if i < 0 {
		b.Fatalf("no study %q", name)
	}
	study := experiments.Studies[i]
	out := slices.Index(study.Files, file)
	var metric float64
	for n := 0; n < b.N; n++ {
		outs, err := study.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if unit != "" {
			metric = lastColMean(outs[out].Table, b)
		}
	}
	if unit != "" {
		b.ReportMetric(metric, unit)
	}
}

// BenchmarkFigure2 regenerates the BMW-vs-BMMM timeline diagram.
func BenchmarkFigure2(b *testing.B) { benchStudy(b, "fig2", "fig2.txt", "") }

// BenchmarkFigure5 regenerates the fₙ series (analysis + recurrence).
func BenchmarkFigure5(b *testing.B) {
	benchStudy(b, "fig5", "fig5.csv", "")
	b.ReportMetric(analysis.ExpectedRounds(25, 0.9), "f25")
}

// BenchmarkFigure6a: successful delivery rate vs nodal density.
func BenchmarkFigure6a(b *testing.B) { benchStudy(b, "density", "fig6a.csv", "LAMM-delivery") }

// BenchmarkFigure9a: avg contention phases vs nodal density.
func BenchmarkFigure9a(b *testing.B) { benchStudy(b, "density", "fig9a.csv", "LAMM-contentions") }

// BenchmarkFigure10a: avg completion time vs nodal density.
func BenchmarkFigure10a(b *testing.B) { benchStudy(b, "density", "fig10a.csv", "LAMM-completion") }

// BenchmarkFigure6b: successful delivery rate vs generation rate.
func BenchmarkFigure6b(b *testing.B) { benchStudy(b, "rate", "fig6b.csv", "LAMM-delivery") }

// BenchmarkFigure9b: avg contention phases vs generation rate.
func BenchmarkFigure9b(b *testing.B) { benchStudy(b, "rate", "fig9b.csv", "LAMM-contentions") }

// BenchmarkFigure10b: avg completion time vs generation rate.
func BenchmarkFigure10b(b *testing.B) { benchStudy(b, "rate", "fig10b.csv", "LAMM-completion") }

// BenchmarkFigure7: successful delivery rate vs timeout.
func BenchmarkFigure7(b *testing.B) { benchStudy(b, "fig7", "fig7.csv", "LAMM-delivery") }

// BenchmarkFigure8: successful delivery rate vs reliability threshold.
func BenchmarkFigure8(b *testing.B) { benchStudy(b, "fig8", "fig8.csv", "LAMM-delivery") }

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

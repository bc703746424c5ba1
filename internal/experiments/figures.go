package experiments

import (
	"fmt"
	"strings"

	"relmac/internal/analysis"
	"relmac/internal/fault"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/report"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// Options tunes how much work an experiment does and what watches it.
// The zero value is replaced by the full-fidelity defaults.
type Options struct {
	// Runs is the number of independent simulation runs per plotted
	// point (the paper uses 100).
	Runs int
	// Slots overrides the simulated duration (default 10 000).
	Slots int
	// Protocols overrides the protocol set (default PaperProtocols).
	Protocols []Protocol
	// Fault applies an impairment configuration (internal/fault) to every
	// run of every sweep. The zero value keeps the paper's clean-channel
	// setup.
	Fault fault.Config
	// FlightDir, when non-empty, makes Drift attach a flight recorder to
	// every run and dump per-message span traces (one JSONL file per run)
	// into the directory — but only for protocols whose weighted drift
	// exceeds DriftTolerance, so a clean gate writes nothing and a
	// tripped one ships the evidence for the drill-down.
	FlightDir string
	// Watch, when non-nil, gives every run of every sweep fresh
	// observability surfaces (Watch.Attach), after the sweep's own
	// changes to the run. Attached observers must not perturb results
	// (the engine guarantees observer neutrality).
	Watch *Watch
	// Progress reports each sweep's progress; the zero value is silent.
	Progress ProgressMeter
}

func (o Options) normal() Options {
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.Slots <= 0 {
		o.Slots = 10000
	}
	if len(o.Protocols) == 0 {
		o.Protocols = PaperProtocols
	}
	return o
}

// DensityPoints are the node counts swept for Figures 6(a), 9(a), 10(a);
// the x axis reported is the measured average number of neighbors.
var DensityPoints = []int{30, 60, 100, 150, 200}

// RatePoints are the per-node per-slot message generation rates swept for
// Figures 6(b), 9(b), 10(b).
var RatePoints = []float64{0.00025, 0.0005, 0.001, 0.0015, 0.002}

// TimeoutPoints are the upper-layer timeouts (slots) swept for Figure 7.
var TimeoutPoints = []int{100, 150, 200, 250, 300}

// ThresholdPoints are the reliability thresholds swept for Figure 8.
var ThresholdPoints = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

func protocolNames(ps []Protocol) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// density runs the nodal-density sweep once for the three tables it
// feeds: Figure 6(a) successful delivery rate, Figure 9(a) average
// number of contention phases, Figure 10(a) average message completion
// time — each versus the measured average number of neighbors.
func density(o Options) ([]Output, error) {
	return sweepAxis(o, len(DensityPoints), func(p int, cfg *RunConfig) { cfg.Nodes = DensityPoints[p] },
		"avg neighbors", func(_ int, cell *PointStats) string { return fmt.Sprintf("%.1f", cell.AvgDegree.Mean()) },
		plot{title: "Figure 6(a): successful delivery rate vs nodal density", value: successRate},
		plot{title: "Figure 9(a): avg contention phases vs nodal density", value: contentions},
		plot{title: "Figure 10(a): avg completion time vs nodal density", value: completionTime})
}

// rate runs the message-generation-rate sweep for Figures 6(b), 9(b)
// and 10(b).
func rate(o Options) ([]Output, error) {
	return sweepAxis(o, len(RatePoints), func(p int, cfg *RunConfig) { cfg.Rate = RatePoints[p] },
		"msg rate", labels("%g", RatePoints),
		plot{title: "Figure 6(b): successful delivery rate vs message generation rate", value: successRate},
		plot{title: "Figure 9(b): avg contention phases vs message generation rate", value: contentions},
		plot{title: "Figure 10(b): avg completion time vs message generation rate", value: completionTime})
}

// fig7 sweeps the upper-layer timeout (Figure 7: successful delivery
// rate vs timeout).
func fig7(o Options) ([]Output, error) {
	return sweepAxis(o, len(TimeoutPoints), func(p int, cfg *RunConfig) { cfg.Timeout = TimeoutPoints[p] },
		"timeout (slots)", labels("%d", TimeoutPoints),
		plot{title: "Figure 7: successful delivery rate vs timeout", value: successRate})
}

// fig8 runs the default workload once per protocol and re-applies the
// success criterion at each reliability threshold (Figure 8).
func fig8(o Options) ([]Output, error) {
	o = o.normal()
	results, err := Sweep(o, 1, func(int, *RunConfig) {}, true)
	if err != nil {
		return nil, err
	}
	header := append([]string{"threshold"}, protocolNames(o.Protocols)...)
	tb := report.NewTable("Figure 8: successful delivery rate vs reliability threshold", header...)
	for _, th := range ThresholdPoints {
		row := []interface{}{fmt.Sprintf("%.0f%%", th*100)}
		for pr := range o.Protocols {
			cell := &results[0][pr]
			var agg metrics.Sample
			for _, col := range cell.Collectors {
				s := col.Summarize(th, metrics.GroupFilter(cell.Horizon))
				if s.Messages > 0 {
					agg.Add(s.SuccessRate)
				}
			}
			row = append(row, agg.Mean())
		}
		tb.AddRow(row...)
	}
	return []Output{{Table: tb}}, nil
}

// TableOne renders the paper's Table 1 from the closed-form analysis.
func TableOne() *report.Table {
	tb := report.NewTable("Table 1: expected contention phases before the sender sends data",
		"parameters", "BMMM", "LAMM", "BMW", "BSMA")
	for _, r := range analysis.Table1() {
		tb.AddRow(fmt.Sprintf("q=%.2f, n=%d, |S'|=%d", r.Q, r.N, r.Cover),
			r.BMMM, r.LAMM, r.BMW, r.BSMA)
	}
	tb.Note = "paper reports 1.00/1.00/1.05/3.27 and 1.00/1.00/1.05/4.08; " +
		"BSMA depends on the fitted Zorzi-Rao capture curve"
	return tb
}

// Fig5 renders the Figure 5 series (expected contention phases vs n at
// p = 0.9) for BMMM/LAMM (the fₙ recurrence) and BMW (n/p), with a
// Monte-Carlo validation column for fₙ.
func Fig5(maxN int) *report.Table {
	if maxN <= 0 {
		maxN = 25
	}
	tb := report.NewTable("Figure 5: expected number of contention phases (p=0.9)",
		"n", "BMMM/LAMM (f_n)", "BMW (n/p)")
	for _, pt := range analysis.Figure5(maxN, 0.9) {
		tb.AddRow(fmt.Sprintf("%d", pt.N), pt.BMMM, pt.BMW)
	}
	return tb
}

// Fig2 reproduces the Figure 2 frame timelines: BMW versus BMMM serving
// one multicast to three receivers on a clean channel. It returns a
// rendered two-column text diagram.
func Fig2() (string, error) {
	render := func(p Protocol) (string, error) {
		factory, err := Factory(p, mac.DefaultConfig())
		if err != nil {
			return "", err
		}
		pts := []geom.Point{
			geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
		}
		tp := topo.FromPoints(pts, 0.2)
		rec := &timelineTracer{}
		eng := sim.New(sim.Config{Topo: tp, Observers: []sim.Observer{rec}})
		eng.AttachMACs(factory)
		script := traffic.NewScript()
		script.At(0, &sim.Request{Kind: sim.Multicast, Src: 0,
			Dests: []int{1, 2, 3}, Deadline: 1000})
		eng.Run(120, script)
		return strings.Join(rec.lines, "\n"), nil
	}
	bmwT, err := render(BMW)
	if err != nil {
		return "", err
	}
	bmmmT, err := render(BMMM)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: BMW vs BMMM, one multicast to 3 receivers, clean channel\n\n")
	b.WriteString("--- BMW (one contention phase per receiver) ---\n")
	b.WriteString(bmwT)
	b.WriteString("\n\n--- BMMM (one contention phase, batched CTS/RAK) ---\n")
	b.WriteString(bmmmT)
	b.WriteString("\n")
	return b.String(), nil
}

// timelineTracer renders transmissions as "slot  FRAME src→dst" lines.
type timelineTracer struct {
	lines []string
}

// Kinds implements sim.Observer.
func (t *timelineTracer) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

// Observe implements sim.Observer.
func (t *timelineTracer) Observe(ev *sim.Event) {
	span := fmt.Sprintf("%d", ev.Start)
	if ev.End != ev.Start {
		span = fmt.Sprintf("%d-%d", ev.Start, ev.End)
	}
	f := ev.Frame
	t.lines = append(t.lines, fmt.Sprintf("  slot %-7s %-4s %s→%s", span, f.Type, f.Src, f.Dst))
}

package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"relmac/internal/analysis"
	"relmac/internal/report"
)

// DriftTolerance is the documented bound on the message-weighted signed
// relative error between observed contention-phase counts and the §6
// closed forms on the Figure 6 (Table 2 defaults) configuration, for the
// batch protocols BMMM and LAMM. The closed forms idealize in both
// directions: a real run burns contention phases that produce no round
// at all (every CTS lost — BMMM retries without reporting one), pushing
// observations up, while end-of-horizon censoring (messages still in
// flight never complete) and LAMM's cover-set completion rule pull the
// completed-message mean down. Measured drift on the defaults sits
// around -0.10 (BMMM) to -0.15 (LAMM); the gate leaves roughly 2x
// headroom so it trips on structural regressions, not sampling noise.
const DriftTolerance = 0.35

// Drift runs the Figure 6 configuration (paper Table 2 defaults) once
// per protocol with an obs.DriftMonitor attached to every run, merges
// the per-run accumulators, and reports the observed-vs-closed-form
// comparison: a rendered table plus the per-protocol summaries for JSON
// export.
//
// With Options.FlightDir set, every run additionally carries an
// obs.Flight, and the span traces of any protocol whose weighted drift
// exceeds DriftTolerance are written to the directory as
// flight_<protocol>_run<N>.jsonl — the per-message evidence behind a
// tripped gate.
func Drift(o Options) (*report.Table, map[Protocol]analysis.DriftSummary, error) {
	o, err := o.normal()
	if err != nil {
		return nil, nil, err
	}
	w := &Watch{Drift: true, Flight: o.FlightDir != ""}
	_, err = Sweep(o, 1, func(_ int, cfg *RunConfig) { w.Attach(cfg) }, false)
	if err != nil {
		return nil, nil, err
	}
	pooled := w.DriftSummaries()
	summaries := make(map[Protocol]analysis.DriftSummary, len(o.Protocols))
	tb := report.NewTable(
		"Analytic drift: observed vs closed-form contention phases (Figure 6 config)",
		"protocol", "model", "p_hat", "n", "msgs", "observed", "expected", "rel_err")
	for _, proto := range o.Protocols {
		s, ok := pooled[string(proto)]
		if !ok {
			continue
		}
		summaries[proto] = s
		for _, pt := range s.Points {
			tb.AddRow(string(proto), s.Model, s.PHat,
				fmt.Sprintf("%d", pt.N), pt.Messages, pt.Observed, pt.Expected, pt.RelErr)
		}
		tb.AddRow(string(proto), s.Model, s.PHat, "all", s.Messages, "", "", s.WeightedRelErr)
	}
	tb.Note = fmt.Sprintf(
		"rel_err = (observed-expected)/expected at the empirical p_hat; "+
			"batch-protocol weighted drift is test-gated at |rel_err| <= %.2f", DriftTolerance)
	if o.FlightDir != "" {
		if err := dumpDriftFlights(o.FlightDir, o.Protocols, summaries, w); err != nil {
			return tb, summaries, err
		}
	}
	return tb, summaries, nil
}

// dumpDriftFlights writes the span traces of every protocol whose
// weighted drift exceeds the tolerance, runs numbered in seed order —
// run order, as Drift's seeds increase with the run.
func dumpDriftFlights(dir string, protocols []Protocol,
	summaries map[Protocol]analysis.DriftSummary, w *Watch) error {

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: flight dir: %w", err)
	}
	for _, proto := range protocols {
		s, ok := summaries[proto]
		if !ok || math.Abs(s.WeightedRelErr) <= DriftTolerance {
			continue
		}
		for i, fl := range w.Flights(proto) {
			path := filepath.Join(dir, fmt.Sprintf("flight_%s_run%d.jsonl", proto, i))
			if err := WriteFile(path, fl.WriteSpansJSONL); err != nil {
				return fmt.Errorf("experiments: flight dump %s: %w", path, err)
			}
		}
	}
	return nil
}

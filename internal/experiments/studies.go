package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"relmac/internal/report"
)

// A Study is one experiment of the catalogue: what cmd/experiments -exp
// selects, runs and writes.
type Study struct {
	// Name selects the study and all of its Files.
	Name string
	// InAll includes the study in "all": the paper's Table 1 and
	// Figures 2 and 5–10.
	InAll bool
	// Sweep marks a study that runs its simulations through Sweep, so
	// every Options field reaches them; the others are closed-form or
	// scripted and ignore Options.
	Sweep bool
	// Files names the study's outputs, in Run's order. A file's base
	// name selects that file alone.
	Files []string
	// Run runs the study and returns one Output per file.
	Run func(Options) ([]Output, error)
}

// An Output is one result of a study: a table, or preformatted Text
// when Table is nil (the Figure 2 timelines).
type Output struct {
	Table *report.Table
	Text  string
}

// Studies is the catalogue of every experiment, in the order
// cmd/experiments runs them.
var Studies = []Study{
	{Name: "table1", InAll: true, Files: []string{"table1.csv"},
		Run: func(Options) ([]Output, error) { return []Output{{Table: TableOne()}}, nil }},
	{Name: "fig2", InAll: true, Files: []string{"fig2.txt"},
		Run: func(Options) ([]Output, error) {
			text, err := Fig2()
			return []Output{{Text: text}}, err
		}},
	{Name: "fig5", InAll: true, Files: []string{"fig5.csv"},
		Run: func(Options) ([]Output, error) { return []Output{{Table: Fig5(25)}}, nil }},
	{Name: "density", InAll: true, Sweep: true, Files: []string{"fig6a.csv", "fig9a.csv", "fig10a.csv"}, Run: density},
	{Name: "rate", InAll: true, Sweep: true, Files: []string{"fig6b.csv", "fig9b.csv", "fig10b.csv"}, Run: rate},
	{Name: "fig7", InAll: true, Sweep: true, Files: []string{"fig7.csv"}, Run: fig7},
	{Name: "mobility", Sweep: true, Files: []string{"mobility.csv"}, Run: mobilityStudy},
	{Name: "overhead", Sweep: true, Files: []string{"overhead.csv"}, Run: overhead},
	{Name: "fault", Sweep: true, Files: []string{"fault_delivery.csv", "fault_contentions.csv"}, Run: faultPER},
	{Name: "faultburst", Sweep: true, Files: []string{"fault_burst.csv"}, Run: faultBurst},
	{Name: "drift", Sweep: true, Files: []string{"drift.csv"},
		Run: func(o Options) ([]Output, error) {
			tb, _, err := Drift(o)
			return []Output{{Table: tb}}, err
		}},
	{Name: "gpserr", Sweep: true, Files: []string{"gpserr.csv"}, Run: locationError},
	{Name: "fig8", InAll: true, Sweep: true, Files: []string{"fig8.csv"}, Run: fig8},
}

// Select resolves a comma-separated list of names to the set of files
// to write: "all" selects the files of every InAll study, a study's
// name all of its files, and a file's base name that file alone. Names
// are trimmed and case-folded, and empty ones skipped. An unknown name,
// or a list that selects nothing, is an error that lists Known.
func Select(spec string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		key := strings.TrimSpace(strings.ToLower(name))
		if key == "" {
			continue
		}
		known := false
		for _, s := range Studies {
			for _, f := range s.Files {
				if key == s.Name || key == baseName(f) || key == "all" && s.InAll {
					want[f], known = true, true
				}
			}
		}
		if !known {
			return nil, fmt.Errorf("experiments: unknown experiment %q; known: %s", strings.TrimSpace(name), Known())
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("experiments: no experiment selected; known: %s", Known())
	}
	return want, nil
}

// Known lists every name Select accepts: "all" with the studies it
// runs, then each study, followed by the base names of its files when
// they differ from its name.
func Known() string {
	var all, each []string
	for _, s := range Studies {
		if s.InAll {
			all = append(all, s.Name)
		}
		bases := make([]string, len(s.Files))
		for i, f := range s.Files {
			bases[i] = baseName(f)
		}
		if len(bases) == 1 && bases[0] == s.Name {
			each = append(each, s.Name)
		} else {
			each = append(each, s.Name+" ("+strings.Join(bases, ",")+")")
		}
	}
	return "all (" + strings.Join(all, ",") + "), " + strings.Join(each, ", ")
}

func baseName(file string) string { return strings.TrimSuffix(file, filepath.Ext(file)) }

// metric selects the plotted value of one (sweep point, protocol) cell.
type metric func(*PointStats) float64

func successRate(c *PointStats) float64    { return c.SuccessRate.Mean() }
func contentions(c *PointStats) float64    { return c.AvgContentions.Mean() }
func completionTime(c *PointStats) float64 { return c.AvgCompletionTime.Mean() }
func reached(c *PointStats) float64        { return c.MeanDeliveredFraction.Mean() }

// plot is one table of a one-axis study.
type plot struct {
	title string
	value metric
	note  string
}

// sweepAxis runs a one-axis study: set configures the runs of each of
// the points, and every plot becomes one table with a row per point,
// labelled by label under the header xName, and a column per protocol.
func sweepAxis(o Options, points int, set func(p int, cfg *RunConfig),
	xName string, label func(p int, cell *PointStats) string, plots ...plot) ([]Output, error) {

	o = o.normal()
	results, err := Sweep(o, points, set, false)
	if err != nil {
		return nil, err
	}
	outs := make([]Output, len(plots))
	for i, pl := range plots {
		tb := report.NewTable(pl.title, append([]string{xName}, protocolNames(o.Protocols)...)...)
		for p := range results {
			row := []interface{}{label(p, &results[p][0])}
			for pr := range o.Protocols {
				row = append(row, pl.value(&results[p][pr]))
			}
			tb.AddRow(row...)
		}
		tb.Note = pl.note
		outs[i] = Output{Table: tb}
	}
	return outs, nil
}

// labels labels point p with values[p] in format, for a sweep whose x
// axis is the swept value itself.
func labels[T any](format string, values []T) func(int, *PointStats) string {
	return func(p int, _ *PointStats) string { return fmt.Sprintf(format, values[p]) }
}

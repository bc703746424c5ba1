package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/metrics"
	"relmac/internal/obs"
)

func sampleRun() runOut {
	return runOut{
		summary: metrics.Summary{Messages: 40, SuccessRate: 0.75, CompletedCount: 31,
			AvgContentions: 1.5, AvgCompletionTime: 42.25, MeanDeliveredFraction: 0.9},
		degree:   9.5,
		findings: -1,
	}
}

func TestDigestCoversOutputsOnly(t *testing.T) {
	a := sampleRun()
	b := a
	b.ns, b.cpuNs, b.start = 12345, 678, time.Now() // host timings are not outputs
	if digest(a) != digest(b) {
		t.Fatal("digest depends on host timings")
	}
	for name, mutate := range map[string]func(*runOut){
		"summary":  func(r *runOut) { r.summary.CompletedCount++ },
		"degree":   func(r *runOut) { r.degree += 1e-12 },
		"findings": func(r *runOut) { r.findings = 0 },
		"ledger": func(r *runOut) {
			r.ledger = &obs.LedgerSnapshot{TotalSlots: 10, Categories: map[string]int64{"idle": 10}}
		},
	} {
		c := a
		mutate(&c)
		if digest(c) == digest(a) {
			t.Errorf("digest ignores %s", name)
		}
	}
}

func TestDigestLedgerKeyOrder(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	a.ledger = &obs.LedgerSnapshot{TotalSlots: 3, Categories: map[string]int64{"idle": 1, "data": 2}}
	b.ledger = &obs.LedgerSnapshot{TotalSlots: 3, Categories: map[string]int64{"data": 2, "idle": 1}}
	if digest(a) != digest(b) {
		t.Fatal("digest depends on map insertion order")
	}
}

func TestValid(t *testing.T) {
	if !valid(sampleRun()) {
		t.Fatal("sample run should be valid")
	}
	for name, mutate := range map[string]func(*runOut){
		"rate above 1":         func(r *runOut) { r.summary.SuccessRate = 1.01 },
		"no messages":          func(r *runOut) { r.summary.Messages = 0 },
		"completions>messages": func(r *runOut) { r.summary.CompletedCount = 41 },
		"audit finding":        func(r *runOut) { r.findings = 1 },
		"ledger not conserved": func(r *runOut) {
			r.ledger = &obs.LedgerSnapshot{TotalSlots: 10, Categories: map[string]int64{"idle": 9}}
		},
	} {
		r := sampleRun()
		mutate(&r)
		if valid(r) {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRunsFlagsDigestDrift(t *testing.T) {
	ref := pass{runs: []runOut{sampleRun(), sampleRun()}}
	same := pass{runs: []runOut{sampleRun(), sampleRun()}}
	drift := pass{runs: []runOut{sampleRun(), sampleRun()}}
	drift.runs[1].summary.Messages++
	if n := checkRuns(ref, []pass{same}); n != 0 {
		t.Fatalf("identical passes: %d failed", n)
	}
	if n := checkRuns(ref, []pass{same, drift}); n != 1 {
		t.Fatalf("one drifting run: %d failed, want 1", n)
	}
}

func timedPass(ns ...int64) pass {
	p := pass{}
	for _, n := range ns {
		p.runs = append(p.runs, runOut{ns: n, cpuNs: 2 * n})
		p.wall += time.Duration(n)
	}
	return p
}

func TestFastest(t *testing.T) {
	ps := []pass{timedPass(5, 5), timedPass(3, 4), timedPass(4, 3), timedPass(9, 9)}
	if got := fastest(ps); got != 1 {
		t.Fatalf("fastest = %d, want 1 (first of the tied 7 ns passes)", got)
	}
	if got := fastest(nil); got != -1 {
		t.Fatalf("fastest(nil) = %d", got)
	}
}

func TestEnvelopeTakesEachRunsFastestInstance(t *testing.T) {
	env := envelope([]pass{timedPass(5, 5, 9), timedPass(3, 6, 9), timedPass(4, 2, 8)})
	if env.wall != 3+2+8 || env.cpu != 2*(3+2+8) {
		t.Fatalf("envelope wall %d cpu %d, want 13 and 26", env.wall, env.cpu)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}}, // Python extrapolates here too
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind       string
		code, json []metricDef
	}{{"end_to_end", endToEnd, sp.EndToEnd}, {"per_layer", perLayer(), sp.PerLayer}} {
		if len(tc.code) != len(tc.json) {
			t.Fatalf("%s: code reports %d metrics, BENCHMARK.json declares %d", tc.kind, len(tc.code), len(tc.json))
		}
		seen := map[string]bool{}
		for i, m := range tc.code {
			if err := validMetric(m); err != nil {
				t.Error(err)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s reported twice", tc.kind, m.Name)
			}
			seen[m.Name] = true
			j := tc.json[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", tc.kind, i, m, j)
			}
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("workloads: BENCHMARK.json %v, code %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, names[i], workloadNames[i])
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric's name and unit fit the benchmark
// contract.
func validMetric(m metricDef) error {
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("metric name %q is not 1–64 of [A-Za-z0-9_.-] starting alphanumeric", m.Name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q is not 1–16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
	}
	return nil
}

func TestValidMetricRejects(t *testing.T) {
	for _, m := range []metricDef{
		{Name: "-lead", Unit: "s", Better: "lower"},
		{Name: "has space", Unit: "s", Better: "lower"},
		{Name: "ok", Unit: "seconds per run!", Better: "lower"},
		{Name: "ok", Unit: "s", Better: "faster"},
	} {
		if validMetric(m) == nil {
			t.Errorf("%+v accepted", m)
		}
	}
}

func TestWorkloadsAreSeedDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, DefaultSeed)
		c, _ := newWorkload(name, HeldOutSeed)
		ra, rb, rc := a.runs(a.own()), b.runs(b.own()), c.runs(c.own())
		if len(ra) == 0 || len(ra) != len(rc) {
			t.Fatalf("%s: %d runs, held-out seed %d", name, len(ra), len(rc))
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed || ra[i].Protocol != rb[i].Protocol {
				t.Fatalf("%s run %d differs between equal seeds", name, i)
			}
			if ra[i].Seed == rc[i].Seed {
				t.Errorf("%s run %d: held-out seed gives the same run seed", name, i)
			}
		}
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestProtoKey(t *testing.T) {
	for in, want := range map[string]string{"802.11": "80211", "BSMA": "bsma", "KK-Leader": "kkleader"} {
		if got := protoKey(experiments.Protocol(in)); got != want {
			t.Errorf("protoKey(%q) = %q, want %q", in, got, want)
		}
	}
}

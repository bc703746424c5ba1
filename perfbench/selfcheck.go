package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// selfcheck runs each workload n times in child processes, one at a time,
// with seeds seed..seed+n-1 and the run length BENCHMARK.json sets, and
// prints each end-to-end metric's median, quartiles and spreads against
// its bound. A metric is steady when its interquartile range stays below a
// third of its bound.
func selfcheck(stdout, stderr io.Writer, only string, n int, seed int64) int {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, wl := range sp.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := child(exe, wl.Name, s, sp.RunSeconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl.Name, s, err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			fmt.Fprintf(stdout, "# %s seed %d: correct=%v", wl.Name, s, res.Correct)
			for _, m := range sp.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Fprintf(stdout, " %s=%.6g", m.Name, v)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%-18s %-12s %12s %12s %12s %8s %8s %6s  %s\n",
			wl.Name, "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			fmt.Fprintln(stdout, spreadLine(m, values[m.Name]))
		}
	}
	return status
}

// spreadLine formats one metric's spread over repeated runs.
func spreadLine(m metricDef, xs []float64) string {
	med := median(xs)
	q := [3]float64{med, med, med}
	if len(xs) >= 2 {
		q = quartiles(xs)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	iqr, rng := 0.0, 0.0
	if med != 0 {
		iqr, rng = (q[2]-q[0])/med, (hi-lo)/med
	}
	verdict := "steady"
	switch {
	case iqr > m.Bound:
		verdict = "NOISY"
	case iqr > m.Bound/3:
		verdict = "marginal"
	}
	return fmt.Sprintf("%-18s %-12s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f  %s",
		"", m.Name, med, q[0], q[2], iqr, rng, m.Bound, verdict)
}

// child runs one untraced invocation of this binary and parses its
// result line.
func child(exe, workload string, seed int64, seconds int, stderr io.Writer) (result, error) {
	var res result
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	dec := json.NewDecoder(bytes.NewReader([]byte(last)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

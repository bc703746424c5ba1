package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"relmac/internal/experiments"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run, the same on every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ok_frac", Unit: "frac", Better: "higher"},
}

// perLayer are the metrics of a traced run, the same on every workload.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, ph := range phaseNames() {
		add("sim."+ph+".ns_per_slot", "ns", "lower")
	}
	add("sim.slots", "count", "higher")
	add("traffic.messages", "count", "higher")
	add("ledger.idle_frac", "frac", "higher")
	add("ledger.collision_frac", "frac", "lower")
	add("ledger.data_frac", "frac", "higher")
	for _, p := range experiments.AllProtocols {
		add("mac."+protoKey(p)+".ns_per_slot", "ns", "lower")
	}
	add("topo.build_s", "s", "lower")
	add("topo.avg_degree", "count", "higher")
	for _, s := range []string{"ledger", "flight", "auditor", "all"} {
		add("obs."+s+".overhead_frac", "frac", "lower")
	}
	add("fault.overhead_frac", "frac", "lower")
	add("fault.erasures", "count", "higher")
	add("fault.crash_downs", "count", "higher")
	add("runtime.allocs_per_slot", "count", "lower")
	add("runtime.bytes_per_slot", "B", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("trace.overhead_frac", "frac", "lower")
	return out
}

// value is one metric reading in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// spec is the subset of BENCHMARK.json the self-check reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), which the acceptance check
// uses. It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	const n = 4
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

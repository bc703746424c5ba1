// Package relbench is the benchmark-regression harness behind
// cmd/relbench. It measures the simulator's hot path — engine slot
// throughput on the optimized and reference paths, allocation pressure,
// and per-protocol sweep wall time — and emits the results as the
// machine-readable BENCH.json report. A committed BENCH_BASELINE.json
// pins the expected numbers; Compare flags regressions beyond a
// tolerance band.
//
// Absolute nanoseconds vary wildly across machines, so the regression
// gate rests on two machine-independent quantities:
//
//   - the speedup ratio reference-ns-per-slot / optimized-ns-per-slot,
//     measured back-to-back in one process — both sides see the same
//     machine, load and compiler, so the ratio isolates the optimization
//     layer (idle-station scheduling, the transmission free-list, the
//     geometry caches) from the hardware;
//   - allocations per slot on the optimized path, which the runtime
//     counts exactly and which no scheduler jitter can perturb.
//
// Absolute ns/slot and wall times are recorded for humans and trend
// dashboards but never fail the gate.
package relbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/prof"
)

// Schema identifies the BENCH.json layout; bump on incompatible change.
// Schema 2 added the sparse-traffic engine pair (Report.Sparse), schema 4
// host metadata (Report.Host) and the phase decomposition
// (Report.Phases); schema 5 dropped the worker-scaling section and the
// serial-fraction projection, so schema-4 pins cannot gate a report.
const Schema = 5

// SparseRate is the message generation rate of the sparse engine pair:
// the lowest-λ point of the Figure 6(b) sweep (experiments.RatePoints[0]),
// the regime where the event clock's idle-stretch skipping dominates.
const SparseRate = 0.00025

// Profile names a measurement size. Quick keeps CI smoke runs in tens of
// seconds; Full is for committed baselines and perf investigations.
type Profile struct {
	// Name keys the profile in baseline files ("quick", "full").
	Name string
	// EngineSlots is the slot count for the engine throughput pair.
	EngineSlots int
	// SparseSlots is the slot count for the sparse-traffic engine pair
	// (arrivals at SparseRate); larger than EngineSlots
	// because the optimized side skips most slots.
	SparseSlots int
	// ProtocolSlots is the slot count for each per-protocol run.
	ProtocolSlots int
	// Reps is how many times each measurement repeats; the fastest rep
	// wins (minimum wall time is the standard noise filter).
	Reps int
	// PhaseNodes/PhaseRadius/PhaseRate/PhaseSlots shape the profiled
	// phase-decomposition run: a plane much denser than the paper's
	// 100-station default, so every engine phase carries measurable
	// work. Zero PhaseNodes disables the section.
	PhaseNodes  int
	PhaseRadius float64
	PhaseRate   float64
	PhaseSlots  int
}

// Quick is the CI smoke profile.
var Quick = Profile{Name: "quick", EngineSlots: 120_000, SparseSlots: 240_000, ProtocolSlots: 15_000, Reps: 3,
	PhaseNodes: 2000, PhaseRadius: 0.05, PhaseRate: 0.0005, PhaseSlots: 2000}

// Full is the baseline-quality profile.
var Full = Profile{Name: "full", EngineSlots: 600_000, SparseSlots: 1_200_000, ProtocolSlots: 60_000, Reps: 3,
	PhaseNodes: 5000, PhaseRadius: 0.03, PhaseRate: 0.0005, PhaseSlots: 6000}

// EngineSample is one measured engine configuration.
type EngineSample struct {
	NsPerSlot     float64 `json:"ns_per_slot"`
	SlotsPerSec   float64 `json:"slots_per_sec"`
	BytesPerSlot  float64 `json:"bytes_per_slot"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
}

// Engine pairs the optimized and reference measurements.
type Engine struct {
	Optimized EngineSample `json:"optimized"`
	Reference EngineSample `json:"reference"`
	// Speedup is Reference.NsPerSlot / Optimized.NsPerSlot.
	Speedup float64 `json:"speedup"`
}

// ProtocolSample is the wall time of one full experiments.Run.
type ProtocolSample struct {
	Protocol    string  `json:"protocol"`
	Slots       int     `json:"slots"`
	WallMs      float64 `json:"wall_ms"`
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// Host records the measuring machine — the context every absolute
// number must be read against. Compare warns (advisory, never failing)
// when a report's host differs from the baseline's, since cross-host
// absolute comparisons are meaningless.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// HostInfo captures the current machine's metadata.
func HostInfo() Host {
	return Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// PhaseSection is the phase decomposition: the Profile.Phase* workload
// run once with a prof.PhaseTimer attached.
type PhaseSection struct {
	Serial *prof.Report `json:"serial"`
}

// Report is the BENCH.json document.
type Report struct {
	Schema    int    `json:"schema"`
	Profile   string `json:"profile"`
	GoVersion string `json:"go"`
	// Host describes the measuring machine. Zero in reports produced
	// before schema 4.
	Host   Host   `json:"host"`
	Engine Engine `json:"engine"`
	// Sparse is the engine pair under sparse traffic (SparseRate) — the
	// workload where the event clock's slot skipping pays off, since
	// long idle stretches separate the arrivals. Nil in reports produced
	// before schema 2.
	Sparse *Engine `json:"sparse,omitempty"`
	// Phases is the engine phase decomposition. Nil in reports produced
	// before schema 4 or when the profile disables it.
	Phases    *PhaseSection    `json:"phases,omitempty"`
	Protocols []ProtocolSample `json:"protocols"`
}

// Baseline is the BENCH_BASELINE.json document: one pinned Report per
// profile name.
type Baseline map[string]*Report

// Measure runs the full measurement suite for the profile. Progress
// lines go through report (may be nil).
func Measure(p Profile, report func(string)) (*Report, error) {
	say := func(format string, args ...any) {
		if report != nil {
			report(fmt.Sprintf(format, args...))
		}
	}
	out := &Report{Schema: Schema, Profile: p.Name, GoVersion: runtime.Version(), Host: HostInfo()}

	say("engine throughput: optimized, %d slots x%d", p.EngineSlots, p.Reps)
	opt, err := measureEngine(false, false, p.EngineSlots, p.Reps)
	if err != nil {
		return nil, err
	}
	say("engine throughput: reference, %d slots x%d", p.EngineSlots, p.Reps)
	ref, err := measureEngine(true, false, p.EngineSlots, p.Reps)
	if err != nil {
		return nil, err
	}
	out.Engine = Engine{Optimized: opt, Reference: ref, Speedup: ref.NsPerSlot / opt.NsPerSlot}

	say("sparse engine throughput: optimized, %d slots x%d", p.SparseSlots, p.Reps)
	sopt, err := measureEngine(false, true, p.SparseSlots, p.Reps)
	if err != nil {
		return nil, err
	}
	say("sparse engine throughput: reference, %d slots x%d", p.SparseSlots, p.Reps)
	sref, err := measureEngine(true, true, p.SparseSlots, p.Reps)
	if err != nil {
		return nil, err
	}
	out.Sparse = &Engine{Optimized: sopt, Reference: sref, Speedup: sref.NsPerSlot / sopt.NsPerSlot}

	if p.PhaseNodes > 0 {
		ph, err := measurePhases(p, say)
		if err != nil {
			return nil, err
		}
		out.Phases = ph
	}

	for _, proto := range experiments.AllProtocols {
		say("protocol sweep: %s, %d slots", proto, p.ProtocolSlots)
		s, err := measureProtocol(proto, p.ProtocolSlots)
		if err != nil {
			return nil, err
		}
		out.Protocols = append(out.Protocols, s)
	}
	return out, nil
}

// measurePhases runs the Profile.Phase* workload once with a
// prof.PhaseTimer attached. A single repetition: phase fractions are
// ratios of large sums and far more stable than absolute wall times.
func measurePhases(p Profile, say func(string, ...any)) (*PhaseSection, error) {
	cfg := experiments.Defaults(experiments.BMMM, 3)
	cfg.Nodes = p.PhaseNodes
	cfg.Radius = p.PhaseRadius
	cfg.Rate = p.PhaseRate
	cfg.Slots = p.PhaseSlots
	pt := prof.New()
	cfg.Profiler = pt
	say("phase decomposition: %d nodes, %d slots, profiled", p.PhaseNodes, p.PhaseSlots)
	if _, err := experiments.Run(cfg); err != nil {
		return nil, err
	}
	r := pt.Report()
	return &PhaseSection{Serial: &r}, nil
}

// measureEngine times the default BMMM workload (the same configuration
// as BenchmarkEngineThroughput) and reports per-slot cost. sparse
// lowers the arrival rate to SparseRate — the workload where the event
// clock skips idle stretches wholesale. Allocation counts
// come from runtime.MemStats deltas around the run; setup costs
// (topology construction, MAC attachment) are amortized over the slot
// count and are negligible at profile sizes.
func measureEngine(reference, sparse bool, slots, reps int) (EngineSample, error) {
	var best EngineSample
	for r := 0; r < reps; r++ {
		cfg := experiments.Defaults(experiments.BMMM, 3)
		cfg.Slots = slots
		cfg.Reference = reference
		if sparse {
			cfg.Rate = SparseRate
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := experiments.Run(cfg); err != nil {
			return EngineSample{}, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)

		s := EngineSample{
			NsPerSlot:     float64(wall.Nanoseconds()) / float64(slots),
			SlotsPerSec:   float64(slots) / wall.Seconds(),
			BytesPerSlot:  float64(after.TotalAlloc-before.TotalAlloc) / float64(slots),
			AllocsPerSlot: float64(after.Mallocs-before.Mallocs) / float64(slots),
		}
		if r == 0 || s.NsPerSlot < best.NsPerSlot {
			best = s
		}
	}
	return best, nil
}

// measureProtocol times one experiments.Run of the protocol at default
// settings.
func measureProtocol(proto experiments.Protocol, slots int) (ProtocolSample, error) {
	cfg := experiments.Defaults(proto, 3)
	cfg.Slots = slots
	start := time.Now()
	if _, err := experiments.Run(cfg); err != nil {
		return ProtocolSample{}, err
	}
	wall := time.Since(start)
	return ProtocolSample{
		Protocol:    string(proto),
		Slots:       slots,
		WallMs:      float64(wall.Nanoseconds()) / 1e6,
		SlotsPerSec: float64(slots) / wall.Seconds(),
	}, nil
}

// Compare checks a fresh report against the baseline entry for its
// profile and returns one message per regression; an empty slice means
// the gate passes. tolerance is the allowed fractional slack (0.25 =
// 25%). A missing profile entry is not a regression — it returns a
// single advisory message and no failure — so fresh profiles can be
// introduced before their baselines are committed. A baseline entry of
// another schema is a regression: its layout cannot be trusted to gate
// this report, so it must be re-pinned.
func Compare(r *Report, base Baseline, tolerance float64) (regressions []string, advisories []string) {
	pin, ok := base[r.Profile]
	if !ok {
		return nil, []string{fmt.Sprintf("no %q entry in baseline; comparison skipped", r.Profile)}
	}
	if pin.Schema != r.Schema {
		return []string{fmt.Sprintf("baseline %q entry has schema %d, this report has schema %d; re-pin the baseline from this build",
			r.Profile, pin.Schema, r.Schema)}, nil
	}
	if pin.Host != (Host{}) && pin.Host != r.Host {
		advisories = append(advisories, fmt.Sprintf(
			"host differs from baseline (%d cores %s/%s %s vs pinned %d cores %s/%s %s) - absolute numbers are not comparable across hosts",
			r.Host.Cores, r.Host.OS, r.Host.Arch, r.Host.Go,
			pin.Host.Cores, pin.Host.OS, pin.Host.Arch, pin.Host.Go))
	}

	minSpeedup := pin.Engine.Speedup * (1 - tolerance)
	if r.Engine.Speedup < minSpeedup {
		regressions = append(regressions, fmt.Sprintf(
			"engine speedup %.2fx below baseline %.2fx - %.0f%% = %.2fx",
			r.Engine.Speedup, pin.Engine.Speedup, tolerance*100, minSpeedup))
	}
	// Allocation counts are exact; the tolerance plus a small absolute
	// floor absorbs runtime-version drift in background allocations.
	maxAllocs := pin.Engine.Optimized.AllocsPerSlot*(1+tolerance) + 0.25
	if r.Engine.Optimized.AllocsPerSlot > maxAllocs {
		regressions = append(regressions, fmt.Sprintf(
			"optimized allocs/slot %.2f above baseline %.2f + %.0f%% = %.2f",
			r.Engine.Optimized.AllocsPerSlot, pin.Engine.Optimized.AllocsPerSlot, tolerance*100, maxAllocs))
	}
	if r.Sparse != nil && pin.Sparse != nil {
		minSparse := pin.Sparse.Speedup * (1 - tolerance)
		if r.Sparse.Speedup < minSparse {
			regressions = append(regressions, fmt.Sprintf(
				"sparse engine speedup %.2fx below baseline %.2fx - %.0f%% = %.2fx",
				r.Sparse.Speedup, pin.Sparse.Speedup, tolerance*100, minSparse))
		}
		maxSparseAllocs := pin.Sparse.Optimized.AllocsPerSlot*(1+tolerance) + 0.25
		if r.Sparse.Optimized.AllocsPerSlot > maxSparseAllocs {
			regressions = append(regressions, fmt.Sprintf(
				"sparse optimized allocs/slot %.2f above baseline %.2f + %.0f%% = %.2f",
				r.Sparse.Optimized.AllocsPerSlot, pin.Sparse.Optimized.AllocsPerSlot, tolerance*100, maxSparseAllocs))
		}
	}
	advisories = append(advisories, fmt.Sprintf(
		"ns/slot optimized %.0f (baseline %.0f), reference %.0f (baseline %.0f) - informational, machine-dependent",
		r.Engine.Optimized.NsPerSlot, pin.Engine.Optimized.NsPerSlot,
		r.Engine.Reference.NsPerSlot, pin.Engine.Reference.NsPerSlot))
	if r.Sparse != nil && pin.Sparse != nil {
		advisories = append(advisories, fmt.Sprintf(
			"sparse ns/slot optimized %.0f (baseline %.0f), reference %.0f (baseline %.0f) - informational, machine-dependent",
			r.Sparse.Optimized.NsPerSlot, pin.Sparse.Optimized.NsPerSlot,
			r.Sparse.Reference.NsPerSlot, pin.Sparse.Reference.NsPerSlot))
	}
	return regressions, advisories
}

// LoadBaseline reads a BENCH_BASELINE.json. A missing file yields an
// empty baseline (every comparison becomes advisory), so the harness
// bootstraps cleanly in a repo that has not committed numbers yet.
func LoadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Baseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("relbench: parse %s: %w", path, err)
	}
	return b, nil
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

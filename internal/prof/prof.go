// Package prof is the engine's runtime profiler: it attributes every
// Engine.Run nanosecond to an exclusive phase (sim.Phase) and turns the
// result into the phase-decomposition report behind `macsim -phases`,
// `experiments -phases`, the relbench phase section and the
// MetricsServer's relmac_phase_* series.
//
// Determinism constraints (the package is sim-path for relmaclint):
// PhaseTimer never calls time.Now — the wall clock enters only as an
// injectable function value (the sanctioned injectable-default pattern,
// like experiments.ProgressMeter.Clock), invoked dynamically and
// replaceable with a fake in tests. The hook methods draw no randomness
// and touch no engine state, which the hookpure check proves over the
// call graph; attaching a PhaseTimer therefore leaves runs
// byte-identical, pinned by the differential tests in
// internal/experiments.
//
// Conservation holds by construction, not by bookkeeping discipline:
// Enter charges the span since the previous mark to the phase being
// left, RunEnd flushes the tail, so the per-phase sums telescope to
// exactly the run's wall time in integer nanoseconds — Σ phases
// (untracked included) ≡ wall.
//
// Concurrency: the engine goroutine owns the marks; Report may be called
// concurrently from HTTP goroutines (the MetricsServer's profile
// callbacks), so the accumulators are atomics. A mid-run Report sees a
// consistent prefix: conservation is exact whenever no Run is in flight.
package prof

import (
	"sync/atomic"
	"time"

	"relmac/internal/sim"
)

// PhaseTimer implements sim.Profiler: a phase-boundary stopwatch with an
// injectable monotonic clock. One PhaseTimer serves one engine at a
// time, but accumulates across sequential runs. Use Aggregate to merge
// timers from separate runs (experiments.Watch gives every run its own
// and pools them per protocol).
type PhaseTimer struct {
	clock func() time.Time
	base  time.Time

	// Engine-goroutine-only mark state.
	running  bool
	cur      sim.Phase
	last     int64
	runBegan int64

	// Accumulators, atomically readable mid-run.
	acc  [sim.NumPhases]atomic.Int64
	wall atomic.Int64
	runs atomic.Int64
}

// New returns a PhaseTimer on the wall clock. The default is taken as a
// function value — never called here — which is what keeps the sim path
// structurally free of wall-clock reads under the determinism check.
func New() *PhaseTimer { return NewWithClock(nil) }

// NewWithClock returns a PhaseTimer on the given clock (nil means the
// wall clock). The clock must be monotonic non-decreasing; it is read at
// every phase mark.
func NewWithClock(clock func() time.Time) *PhaseTimer {
	if clock == nil {
		clock = time.Now
	}
	return &PhaseTimer{clock: clock, base: clock()}
}

// now is nanoseconds since the timer's base, via the injected clock.
func (t *PhaseTimer) now() int64 { return t.clock().Sub(t.base).Nanoseconds() }

// RunStart implements sim.Profiler.
func (t *PhaseTimer) RunStart() {
	n := t.now()
	t.running = true
	t.cur = sim.PhaseUntracked
	t.last = n
	t.runBegan = n
	t.runs.Add(1)
}

// Enter implements sim.Profiler: the span since the previous mark is
// charged to the phase being left.
func (t *PhaseTimer) Enter(p sim.Phase) {
	if !t.running {
		return
	}
	n := t.now()
	t.acc[t.cur].Add(n - t.last)
	t.last = n
	t.cur = p
}

// RunEnd implements sim.Profiler: flushes the tail span.
func (t *PhaseTimer) RunEnd() {
	if !t.running {
		return
	}
	n := t.now()
	t.acc[t.cur].Add(n - t.last)
	t.wall.Add(n - t.runBegan)
	t.running = false
}

// PhaseSample is one phase's share of the profiled wall time.
type PhaseSample struct {
	Phase string  `json:"phase"`
	Ns    int64   `json:"ns"`
	Frac  float64 `json:"frac"`
}

// Report is the profiler's JSON-marshalable snapshot: the phase
// decomposition of the profiled wall time.
type Report struct {
	// Runs is how many Engine.Run/Step brackets the timer accumulated.
	Runs int64 `json:"runs"`
	// WallNs is total profiled wall time; equal to the sum of the phase
	// ns by construction (the conservation invariant).
	WallNs int64 `json:"wall_ns"`
	// Phases lists every phase in enum order, untracked included.
	Phases []PhaseSample `json:"phases"`
}

// Conserved reports the conservation invariant: Σ phase ns ≡ wall ns.
func (r *Report) Conserved() bool {
	var sum int64
	for _, p := range r.Phases {
		sum += p.Ns
	}
	return sum == r.WallNs
}

// PhaseNs returns the named phase's nanoseconds (0 if absent).
func (r *Report) PhaseNs(name string) int64 {
	for _, p := range r.Phases {
		if p.Phase == name {
			return p.Ns
		}
	}
	return 0
}

// Report builds the timer's current report. Safe to call concurrently
// with marks; exact once the run has ended.
func (t *PhaseTimer) Report() Report {
	r := Report{Runs: t.runs.Load(), WallNs: t.wall.Load()}
	var acc [sim.NumPhases]int64
	// A mid-run read sees phase time not yet flushed into wall; publish
	// the phase sum as the wall so Conserved stays true for observers.
	var sum int64
	for i := range acc {
		acc[i] = t.acc[i].Load()
		sum += acc[i]
	}
	if sum > r.WallNs {
		r.WallNs = sum
	}
	r.Phases = make([]PhaseSample, sim.NumPhases)
	for i := range acc {
		r.Phases[i] = PhaseSample{Phase: sim.Phase(i).String(), Ns: acc[i]}
	}
	fillFracs(&r)
	return r
}

// fillFracs derives every phase's share of r.WallNs.
func fillFracs(r *Report) {
	if r.WallNs <= 0 {
		return
	}
	for i := range r.Phases {
		r.Phases[i].Frac = float64(r.Phases[i].Ns) / float64(r.WallNs)
	}
}

// Aggregate merges the reports of several timers — one per concurrent
// run, as in cmd/experiments sweeps — into one pooled report. Phase
// nanoseconds add; the fractions are rederived from the pooled phases.
func Aggregate(timers []*PhaseTimer) Report {
	var out Report
	out.Phases = make([]PhaseSample, sim.NumPhases)
	for i := range out.Phases {
		out.Phases[i].Phase = sim.Phase(i).String()
	}
	for _, t := range timers {
		r := t.Report()
		out.Runs += r.Runs
		out.WallNs += r.WallNs
		for i := range r.Phases {
			out.Phases[i].Ns += r.Phases[i].Ns
		}
	}
	fillFracs(&out)
	return out
}

package sim

// Runtime phase profiling: the engine attributes wall-clock time to
// exclusive phases by calling an attached Profiler at every phase
// boundary of the slot loop. The hook is an observation channel with the
// same contract as the observers — it must be PRNG-neutral and
// must not mutate engine state (the relmaclint hookpure check proves
// both for every implementation), so runs with and without a profiler
// attached are byte-identical. With Config.Profiler nil every mark site
// is a single nil check; the hot path stays zero-cost.

import "fmt"

// Phase labels one exclusive slice of Engine.Run wall time. Every
// nanosecond of a profiled run lands in exactly one phase; PhaseUntracked
// is the remainder bucket (wake-obligation drain, slot hooks, loop
// bookkeeping), so the per-phase times always sum to the wall time — the
// conservation invariant prof.PhaseTimer maintains by construction.
type Phase uint8

// The engine's phases, in slot-loop order.
const (
	// PhaseUntracked is everything between named phases: wake-obligation
	// drains, slot hooks, skip-target probes and loop bookkeeping.
	PhaseUntracked Phase = iota
	// PhaseIdleSkip is the event clock jumping over idle stretches.
	PhaseIdleSkip
	// PhaseBusyStamp is per-slot physical carrier sense (computeBusy).
	PhaseBusyStamp
	// PhaseArrivals is traffic-source draws plus request submission.
	PhaseArrivals
	// PhaseMacTick is the awake-worklist MAC tick loop, transmission
	// starts included.
	PhaseMacTick
	// PhaseResolve is per-slot interference resolution (resolveSlot).
	PhaseResolve
	// PhaseObserver is every event dispatch (emit) wherever it fires:
	// the per-slot channel state and skipped idle spans, submissions,
	// transmission starts, receptions and the Env.Report* calls from
	// MAC code. The metrics collector experiments.Run always attaches is
	// an observer, so its cost lands here too.
	PhaseObserver
	// PhaseDeliveries is frame completion: erasure draws, Deliver calls
	// and tx-table compaction (completeSlot).
	PhaseDeliveries
	numPhases
)

// NumPhases is the number of distinct phases, for phase-indexed arrays.
const NumPhases = int(numPhases)

// String implements fmt.Stringer; the names are the stable keys used in
// reports, metrics series and perfbench's per-phase metrics.
func (p Phase) String() string {
	switch p {
	case PhaseUntracked:
		return "untracked"
	case PhaseIdleSkip:
		return "idle-skip"
	case PhaseBusyStamp:
		return "busy-stamp"
	case PhaseArrivals:
		return "arrivals"
	case PhaseMacTick:
		return "mac-tick"
	case PhaseResolve:
		return "resolve"
	case PhaseObserver:
		return "observer-dispatch"
	case PhaseDeliveries:
		return "deliveries"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Profiler receives phase-boundary marks from the engine. All methods
// are invoked from the engine goroutine, between — never inside — the
// simulation's deterministic work, and must be PRNG-neutral and free of
// engine mutations (hookpure-checked), so attaching a profiler cannot
// perturb a run. Implementations should be cheap: Enter fires about six
// times per simulated slot, plus twice per event dispatch.
//
// The canonical implementation is prof.PhaseTimer; the interface lives
// here so the engine does not depend on the profiling package.
type Profiler interface {
	// RunStart marks the beginning of an Engine.Run (or single Step).
	RunStart()
	// Enter marks the boundary where the engine switches into phase p;
	// time since the previous mark belongs to the phase being left.
	Enter(p Phase)
	// RunEnd marks the end of the Run/Step; the tail since the last
	// Enter belongs to the phase current at that point.
	RunEnd()
}

// enter marks a phase boundary; a nil profiler costs one comparison.
func (e *Engine) enter(p Phase) {
	if e.prof != nil {
		e.phase = p
		e.prof.Enter(p)
	}
}

// dispatch charges the hook calls that follow to PhaseObserver, and
// resume returns to the phase they interrupted. emit brackets every
// event with the pair, so hook time never counts as the engine work
// around it. Each costs one comparison without a profiler.
func (e *Engine) dispatch() {
	if e.prof != nil {
		e.prof.Enter(PhaseObserver)
	}
}

func (e *Engine) resume() {
	if e.prof != nil {
		e.prof.Enter(e.phase)
	}
}

package experiments

import (
	"runtime"
	"testing"
)

// steadyAllocs pins each protocol's steady-state heap allocations per
// slot at Table 2 defaults, seed 3, as measured on go1.24/amd64. The
// per-message frames, receiver sets and cover computations are the
// budget; anything new the slot loop allocates on every pass shows up
// here as whole allocations per slot.
var steadyAllocs = map[Protocol]float64{
	Plain80211: 0.41,
	BSMA:       2.07,
	BMW:        0.97,
	BMMM:       1.90,
	LAMM:       1.82,
}

// allocSlack is the relative headroom over the pinned figure: far above
// the ±0.01 run-to-run noise, below the cost of one fresh allocation per
// MAC Tick, which nearly doubles the sparsest protocol's count.
const allocSlack = 1.25

// TestSteadyStateAllocsPerSlot is the dynamic allocation gate of the
// slot loop. It counts heap allocations (runtime.MemStats.Mallocs) over
// whole runs of 2 000 and 6 000 slots; the difference over 4 000 slots
// cancels setup, topology and summary costs and leaves the per-slot
// steady state. Unlike a static scan it sees what the compiler actually
// heap-allocates — stack-allocated makes cost nothing, and scratch stored
// into a package variable counts.
func TestSteadyStateAllocsPerSlot(t *testing.T) {
	mallocs := func(cfg RunConfig) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, p := range AllProtocols {
		cfg := Defaults(p, 3)
		cfg.Slots = 2000
		short := mallocs(cfg)
		cfg.Slots = 6000
		long := mallocs(cfg)
		perSlot := (float64(long) - float64(short)) / 4000
		if bound := steadyAllocs[p] * allocSlack; perSlot > bound {
			t.Errorf("%s: %.2f allocs/slot in steady state, bound %.2f (pinned %.2f)", p, perSlot, bound, steadyAllocs[p])
		}
	}
}

package experiments_test

// The profiler's byte-neutrality gate: attaching a prof.PhaseTimer to a
// run must leave every equality witness byte-identical — transcript,
// observer event stream, summary, airtime ledger and audit report. This
// is the differential proof behind the sim.Config.Profiler contract (and
// what the hookpure lint check enforces statically); the conservation
// test then pins the profiler's own accounting invariant on every
// protocol, clean and impaired.

import (
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/prof"
)

// withProfiler returns a mutation composing base (may be nil) with a
// fresh phase timer attached to the run.
func withProfiler(base func(cfg *experiments.RunConfig)) func(cfg *experiments.RunConfig) {
	return func(cfg *experiments.RunConfig) {
		if base != nil {
			base(cfg)
		}
		cfg.Profiler = prof.New()
	}
}

// TestProfilerByteNeutralSerial pins profiler attachment as a no-op for
// all five protocols.
func TestProfilerByteNeutralSerial(t *testing.T) {
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			bare := runFull(t, proto, false, nil)
			profiled := runFull(t, proto, false, withProfiler(nil))
			if len(bare.transcript) == 0 {
				t.Fatal("run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, profiled, bare)
		})
	}
}

// TestProfilerConservation pins the accounting invariant Σ phases ≡ wall
// for every protocol, clean and impaired — no engine nanosecond may be
// double-counted or lost, exactly (integer arithmetic, no tolerance).
func TestProfilerConservation(t *testing.T) {
	modes := []struct {
		name     string
		impaired bool
	}{
		{"clean-serial", false},
		{"impaired-serial", true},
	}
	for _, proto := range experiments.AllProtocols {
		for _, m := range modes {
			t.Run(string(proto)+"/"+m.name, func(t *testing.T) {
				pt := prof.New()
				cfg := experiments.Defaults(proto, 11)
				cfg.Slots = 2000
				cfg.Profiler = pt
				if m.impaired {
					cfg.Fault = fault.Config{PER: 0.02, Crash: fault.Crash{MTTF: 1500, MTTR: 150}}
				}
				if _, err := experiments.Run(cfg); err != nil {
					t.Fatal(err)
				}
				r := pt.Report()
				if r.Runs != 1 || r.WallNs <= 0 {
					t.Fatalf("empty report: runs=%d wall=%d", r.Runs, r.WallNs)
				}
				if !r.Conserved() {
					sum := int64(0)
					for _, p := range r.Phases {
						sum += p.Ns
					}
					t.Fatalf("conservation violated: phases sum to %d, wall %d (%+v)", sum, r.WallNs, r.Phases)
				}
			})
		}
	}
}

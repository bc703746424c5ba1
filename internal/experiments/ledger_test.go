package experiments

import (
	"fmt"
	"testing"
	"time"

	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// TestLedgerConservationAllProtocols is the acceptance invariant of the
// airtime ledger: per-category slot counts must sum exactly to the
// simulated slot count for every protocol, with a clean channel and
// under fault impairment (PER erasures + node crashes), where receptions
// vanish and MACs retry, abort, and stall in ways the classifier must
// still attribute to exactly one category per slot.
func TestLedgerConservationAllProtocols(t *testing.T) {
	impairments := []struct {
		name  string
		fault fault.Config
	}{
		{"clean", fault.Config{}},
		{"impaired", fault.Config{PER: 0.2, Crash: fault.Crash{MTTF: 800, MTTR: 200}}},
	}
	for _, proto := range AllProtocols {
		for _, imp := range impairments {
			t.Run(fmt.Sprintf("%s/%s", proto, imp.name), func(t *testing.T) {
				reg := obs.NewRegistry()
				led := obs.NewLedger(reg, string(proto))
				cfg := Defaults(proto, 11)
				cfg.Nodes = 40
				cfg.Slots = 1500
				cfg.Fault = imp.fault
				cfg.Observers = []sim.Observer{led}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				snap := led.Snapshot()
				if snap.TotalSlots != int64(cfg.Slots) {
					t.Errorf("ledger saw %d slots, want %d (hook must fire once per slot)",
						snap.TotalSlots, cfg.Slots)
				}
				if !snap.Conserved() {
					var sum int64
					for _, v := range snap.Categories {
						sum += v
					}
					t.Errorf("conservation violated: categories sum to %d, total %d (%+v)",
						sum, snap.TotalSlots, snap.Categories)
				}
				// A live protocol on the default workload must both move
				// data and leave the channel idle sometime.
				if snap.Categories["data"] == 0 {
					t.Errorf("no DATA slots ledgered: %+v", snap.Categories)
				}
				if snap.Categories["idle"] == 0 {
					t.Errorf("no idle slots ledgered: %+v", snap.Categories)
				}
			})
		}
	}
}

// spanLedger counts the bulk idle spans a Ledger is handed.
type spanLedger struct {
	*obs.Ledger
	spans int
}

func (l *spanLedger) Observe(ev *sim.Event) {
	if ev.Kind == sim.EvIdleSpan {
		l.spans++
	}
	l.Ledger.Observe(ev)
}

// TestLedgerIdleSpansMatchPerSlot pins the equivalence the idle-span
// event rests on, for the real airtime ledger: sparse traffic lets the
// optimized engine skip idle stretches (one EvIdleSpan each),
// while the reference engine hands the same stretches over slot by slot — and every protocol's ledger snapshot must come out
// identical.
func TestLedgerIdleSpansMatchPerSlot(t *testing.T) {
	for _, proto := range AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			run := func(reference bool) (obs.LedgerSnapshot, int) {
				led := &spanLedger{Ledger: obs.NewLedger(obs.NewRegistry(), string(proto))}
				cfg := Defaults(proto, 5)
				cfg.Rate = 0.00025
				cfg.Slots = 6000
				cfg.Reference = reference
				cfg.Observers = []sim.Observer{led}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				return led.Snapshot(), led.spans
			}
			opt, optSpans := run(false)
			ref, refSpans := run(true)
			if optSpans == 0 || refSpans != 0 {
				t.Fatalf("idle spans: optimized %d, reference %d; want some and none", optSpans, refSpans)
			}
			if opt.Categories["data"] == 0 {
				t.Fatalf("no DATA slots ledgered; the comparison is vacuous: %+v", opt.Categories)
			}
			if fmt.Sprint(opt) != fmt.Sprint(ref) {
				t.Errorf("ledger snapshots diverged:\n  bulk spans: %+v\n  per slot:   %+v", opt, ref)
			}
		})
	}
}

// TestLedgerDisabledBitIdentical pins that leaving the ledger (and hence
// the slot hook) unattached reproduces the exact run: same summary as a
// ledgered run at the same seed, and no observer-visible difference —
// the cheap stand-in for the full PR-4 equivalence suite, which also
// runs unhooked.
func TestLedgerDisabledBitIdentical(t *testing.T) {
	run := func(withLedger bool) (string, error) {
		cfg := Defaults(BMMM, 23)
		cfg.Nodes = 30
		cfg.Slots = 1200
		if withLedger {
			reg := obs.NewRegistry()
			led := obs.NewLedger(reg, "BMMM")
			cfg.Observers = []sim.Observer{led}
		}
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", res.Summary), nil
	}
	with, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if with != without {
		t.Errorf("ledger perturbed the run:\n  with:    %s\n  without: %s", with, without)
	}
}

func TestSweepStatusLiveUpdates(t *testing.T) {
	st := &SweepStatus{}
	saved := Progress
	tick := 0
	Progress = ProgressMeter{Status: st, Clock: func() time.Time {
		tick++
		return time.Unix(int64(tick), 0)
	}}
	defer func() { Progress = saved }()

	_, err := Sweep(2, []Protocol{BMMM}, 2, func(p int, cfg *RunConfig) {
		cfg.Nodes = 15
		cfg.Slots = 300
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Snapshot()
	if got.Active {
		t.Error("status still active after sweep returned")
	}
	if got.TotalRuns != 4 || got.DoneRuns != 4 {
		t.Errorf("runs = %d/%d, want 4/4", got.DoneRuns, got.TotalRuns)
	}
	if got.Points != 2 || got.PointsDone != 2 {
		t.Errorf("points = %d/%d, want 2/2", got.PointsDone, got.Points)
	}
	if got.Fraction != 1 {
		t.Errorf("fraction = %g, want 1", got.Fraction)
	}
	if got.ETASeconds != 0 {
		t.Errorf("eta after completion = %g, want 0", got.ETASeconds)
	}
}

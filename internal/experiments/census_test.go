package experiments

import (
	"testing"

	"relmac/internal/core"
	"relmac/internal/frames"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// The census counts the work the optimization layer saves: MAC Tick
// calls (idle-station scheduling puts quiescent stations to sleep) and
// stepped slots (the event clock skips stretches in which every station
// sleeps and nothing is in the air). Both counts are exact and the same
// on every machine, so unlike a wall-clock ratio they can gate each
// protocol tightly.

// tickCounter wraps a MAC and counts its Tick calls. It forwards
// Quiescent, so the engine schedules the wrapped station as it would
// the bare MAC.
type tickCounter struct {
	sim.MAC
	ticks *int64
}

func (m tickCounter) Tick(env *sim.Env) *frames.Frame {
	*m.ticks++
	return m.MAC.Tick(env)
}

func (m tickCounter) Quiescent(after sim.Slot) bool {
	s, ok := m.MAC.(sim.Sleeper)
	return ok && s.Quiescent(after)
}

// slotCounter counts the slots the engine steps (EvSlot) and the slots
// its event clock skips (EvIdleSpan).
type slotCounter struct{ stepped, skipped int64 }

func (c *slotCounter) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot, sim.EvIdleSpan) }

func (c *slotCounter) Observe(ev *sim.Event) {
	if ev.Kind == sim.EvSlot {
		c.stepped++
	} else {
		c.skipped += int64(ev.End - ev.Start + 1)
	}
}

// census runs cfg as Run builds it, with every MAC wrapped in a
// tickCounter, and returns the ticks per station-slot and the share of
// slots skipped. On the optimized path the slots are also counted on Run
// itself, which must step and skip the same slots, so the census
// measures Run's trajectory; the reference path steps every slot anyway.
func census(t *testing.T, cfg RunConfig) (ticks, skipped float64) {
	t.Helper()
	factory, err := Factory(cfg.Protocol, cfg.MAC)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reference && cfg.Protocol == LAMM {
		factory = core.NewLAMMReference(cfg.MAC)
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	tp := topo.Uniform(cfg.Nodes, cfg.Radius, rng)
	gen := traffic.NewGenerator(tp, rng)
	gen.Rate, gen.Mix, gen.Timeout = cfg.Rate, cfg.Mix, cfg.Timeout
	var n int64
	var slots slotCounter
	eng := sim.New(sim.Config{
		Topo:      tp,
		Capture:   cfg.Capture,
		Seed:      cfg.Seed ^ 0x1e3779b97f4a7c15,
		Observers: []sim.Observer{&slots},
		Reference: cfg.Reference,
	})
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		return tickCounter{MAC: factory(node, env), ticks: &n}
	})
	eng.Run(cfg.Slots, gen)

	if !cfg.Reference {
		var viaRun slotCounter
		cfg.Observers = []sim.Observer{&viaRun}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if viaRun != slots {
			t.Fatalf("%s: census stepped/skipped %d/%d slots, Run %d/%d", cfg.Protocol, slots.stepped, slots.skipped, viaRun.stepped, viaRun.skipped)
		}
	}
	if total := slots.stepped + slots.skipped; total != int64(cfg.Slots) {
		t.Fatalf("%s: %d stepped + %d skipped slots, want %d", cfg.Protocol, slots.stepped, slots.skipped, cfg.Slots)
	}
	return float64(n) / float64(cfg.Nodes*cfg.Slots), float64(slots.skipped) / float64(cfg.Slots)
}

// share is one protocol's pinned census on the optimized path.
type share struct {
	// ticks is the MAC Tick calls per station-slot: an upper pin.
	ticks float64
	// skipped is the share of slots the event clock skips: a lower pin.
	skipped float64
}

// optimizedShares pins the census per protocol at seed 3 over 20 000
// slots, at Table 2 defaults and at the sparse end of Figure 6(b),
// RatePoints[0]. The counts are exact; shareSlack leaves room for a
// deliberate trajectory change without re-pinning.
var optimizedShares = []struct {
	rate float64
	pins map[Protocol]share
}{
	{0.0005, map[Protocol]share{
		Plain80211: {0.0039, 0.711},
		BSMA:       {0.0745, 0.118},
		BMW:        {0.0377, 0.046},
		BMMM:       {0.0366, 0.123},
		LAMM:       {0.0304, 0.179},
	}},
	{0.00025, map[Protocol]share{
		Plain80211: {0.0020, 0.838},
		BSMA:       {0.0417, 0.316},
		BMW:        {0.0198, 0.193},
		BMMM:       {0.0176, 0.364},
		LAMM:       {0.0143, 0.441},
	}},
}

// shareSlack is the relative headroom of each census pin. Undoing either
// optimization moves a count by far more: a station that never sleeps
// ticks every slot, ten to five hundred times its pinned share, and an
// engine that never skips steps every slot.
const shareSlack = 1.25

// TestOptimizationCensus pins the work the optimization layer saves, for
// every protocol. The reference path ticks every station and steps every
// slot; the optimized path must tick at most its pinned share times
// shareSlack and skip at least its pinned share over shareSlack.
func TestOptimizationCensus(t *testing.T) {
	for _, w := range optimizedShares {
		for _, p := range AllProtocols {
			cfg := Defaults(p, 3)
			cfg.Slots = 20000
			cfg.Rate = w.rate
			pin := w.pins[p]
			ticks, skipped := census(t, cfg)
			if bound := pin.ticks * shareSlack; ticks > bound {
				t.Errorf("rate %v %s: %.4f ticks per station-slot, bound %.4f (pinned %.4f)", w.rate, p, ticks, bound, pin.ticks)
			}
			if bound := pin.skipped / shareSlack; skipped < bound {
				t.Errorf("rate %v %s: %.3f of slots skipped, bound %.3f (pinned %.3f)", w.rate, p, skipped, bound, pin.skipped)
			}
			cfg.Reference = true
			if ticks, skipped := census(t, cfg); ticks != 1 || skipped != 0 {
				t.Errorf("rate %v %s reference: %.4f ticks per station-slot and %.3f of slots skipped, want 1 and 0", w.rate, p, ticks, skipped)
			}
		}
	}
}

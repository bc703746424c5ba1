package mobility

import (
	"math"
	"math/rand"
	"testing"

	"relmac/internal/baseline/dcf"
	"relmac/internal/core"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

func TestWaypointStaysInUnitSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWaypoint(30, 0.001, 0.01, 5, rng)
	for step := 0; step < 5000; step++ {
		w.Step()
		for i := 0; i < w.N(); i++ {
			p := w.Pos(i)
			if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
				t.Fatalf("step %d: node %d escaped to %v", step, i, p)
			}
		}
	}
}

func TestWaypointSpeedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWaypoint(20, 0.002, 0.004, 0, rng)
	prev := w.Positions()
	for step := 0; step < 1000; step++ {
		w.Step()
		for i := 0; i < w.N(); i++ {
			d := prev[i].Dist(w.Pos(i))
			if d > 0.004+1e-12 {
				t.Fatalf("node %d moved %v in one slot, cap 0.004", i, d)
			}
		}
		prev = w.Positions()
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWaypoint(10, 0.005, 0.005, 0, rng)
	start := w.Positions()
	for step := 0; step < 500; step++ {
		w.Step()
	}
	moved := 0
	for i := 0; i < w.N(); i++ {
		if start[i].Dist(w.Pos(i)) > 0.05 {
			moved++
		}
	}
	if moved < 8 {
		t.Errorf("only %d/10 nodes moved meaningfully", moved)
	}
}

func TestWaypointPause(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewWaypoint(1, 1.0, 1.0, 3, rng) // speed 1: reaches any waypoint in one step
	w.Step()                              // arrives, rest=3
	at := w.Pos(0)
	for k := 0; k < 3; k++ {
		w.Step()
		if w.Pos(0) != at {
			t.Fatalf("node moved during pause (step %d)", k)
		}
	}
	w.Step() // new waypoint picked on rest expiry... next step moves
	w.Step()
	if w.Pos(0) == at {
		t.Error("node did not resume after pause")
	}
}

func TestWaypointDegenerateSpeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWaypoint(5, 0.01, 0.005, 0, rng) // max < min: clamped
	w.Step()
	if w.MaxSpeed != 0.01 {
		t.Errorf("max speed not clamped: %v", w.MaxSpeed)
	}
}

func TestDriverRefreshesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	model := NewWaypoint(20, 0.01, 0.01, 0, rng)
	d := &Driver{Model: model, Radius: 0.25, BeaconEvery: 10}
	refreshes := 0
	d.OnRefresh = func(tp *topo.Topology) { refreshes++ }
	start := topo.FromPoints(model.Positions(), 0.25)
	eng := sim.New(sim.Config{Topo: start, SlotHook: d.Hook()})
	eng.AttachMACs(dcf.NewPlain(mac.DefaultConfig()))
	eng.Run(100, nil)
	if refreshes != 10 {
		t.Errorf("refreshes = %d, want 10", refreshes)
	}
	// The engine's topology must now reflect moved positions.
	if eng.Topo() == start {
		t.Error("topology never swapped")
	}
}

func TestSetTopologyPanicsOnCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp := topo.Uniform(5, 0.2, rng)
	eng := sim.New(sim.Config{Topo: tp})
	defer func() {
		if recover() == nil {
			t.Error("station-count change must panic")
		}
	}()
	eng.SetTopology(topo.Uniform(6, 0.2, rng))
}

// Protocols keep working under mobility; faster movement degrades
// multicast delivery (stale membership and, for LAMM, stale locations).
func TestProtocolsUnderMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("mobility simulation")
	}
	deliveryAt := func(speed float64) float64 {
		var total, n float64
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			model := NewWaypoint(80, speed, speed, 0, rng)
			d := &Driver{Model: model, Radius: 0.2, BeaconEvery: 50}
			tp := topo.FromPoints(model.Positions(), 0.2)
			gen := traffic.NewGenerator(tp, rng)
			gen.Rate = 0.0005
			d.OnRefresh = func(newTp *topo.Topology) { gen.Topo = newTp }
			col := metrics.NewCollector()
			eng := sim.New(sim.Config{Topo: tp, Observers: []sim.Observer{col}, Seed: seed, SlotHook: d.Hook()})
			eng.AttachMACs(core.NewLAMM(mac.DefaultConfig()))
			eng.Run(4000, gen)
			s := col.Summarize(0.9, metrics.GroupFilter(4000))
			if s.Messages > 0 {
				total += s.SuccessRate
				n++
			}
		}
		if n == 0 {
			t.Fatal("no messages observed")
		}
		return total / n
	}
	static := deliveryAt(0)
	fast := deliveryAt(0.004) // ~2 radii per message lifetime
	t.Logf("LAMM delivery: static %.3f, fast %.3f", static, fast)
	if static < 0.5 {
		t.Errorf("static delivery implausibly low: %v", static)
	}
	if fast > static+0.05 {
		t.Errorf("mobility should not improve delivery: static %.3f fast %.3f", static, fast)
	}
	if math.Abs(static-fast) < 1e-9 {
		t.Error("mobility appears to have no effect at all; hook broken?")
	}
}

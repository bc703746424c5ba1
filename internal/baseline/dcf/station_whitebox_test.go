package dcf

// White-box tests of Station internals that the black-box suite cannot
// reach directly.

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

func testEnvPair(t *testing.T, pts []geom.Point, radius float64, cfg mac.Config) (*sim.Engine, []*Station) {
	t.Helper()
	tp := topo.FromPoints(pts, radius)
	eng := sim.New(sim.Config{Topo: tp})
	stations := make([]*Station, tp.N())
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		st := NewStation(node, cfg, &Plain{})
		stations[node] = st
		return st
	})
	return eng, stations
}

func TestNewStationDefaults(t *testing.T) {
	st := NewStation(3, mac.Config{}, nil)
	if st.Addr() != 3 {
		t.Errorf("addr = %v", st.Addr())
	}
	if st.cfg.CWMin != mac.DefaultConfig().CWMin {
		t.Error("zero config must be replaced by defaults")
	}
	if st.mc == nil {
		t.Error("nil multicaster must fall back to Plain")
	}
	if st.Current() != nil || st.QueueLen() != 0 {
		t.Error("fresh station not empty")
	}
}

func TestFinishRequestWithoutCurrent(t *testing.T) {
	eng, stations := testEnvPair(t, []geom.Point{geom.Pt(0.1, 0.1)}, 0.2, mac.DefaultConfig())
	eng.Run(1, nil)
	// Must be a no-op, not a panic.
	stations[0].FinishRequest(nil, true)
}

func TestCanRespondSemantics(t *testing.T) {
	st := NewStation(0, mac.DefaultConfig(), nil)
	f := &frames.Frame{Type: frames.RTS, MsgID: 42, Dst: 0}
	if !st.CanRespond(f, 10) {
		t.Error("no reservations: must respond")
	}
	st.nav.ObserveFor(42, 10, 20) // same exchange
	if !st.CanRespond(f, 12) {
		t.Error("own-exchange reservation must not block")
	}
	st.nav.ObserveFor(7, 10, 20) // foreign exchange
	if st.CanRespond(f, 12) {
		t.Error("foreign reservation must block")
	}
	if st.CanRespond(f, 29) {
		t.Error("reservation covers through slot 30")
	}
	if !st.CanRespond(f, 31) {
		t.Error("expired reservation must unblock")
	}
}

func TestYieldDurationConservativeCases(t *testing.T) {
	cfg := mac.DefaultConfig()
	cfg.ExposedTerminalOpt = true
	tp := topo.FromPoints([]geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.9, 0.9),
	}, 0.2)
	eng := sim.New(sim.Config{Topo: tp})
	var st *Station
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		s := NewStation(node, cfg, &Plain{})
		if node == 0 {
			st = s
		}
		return s
	})
	eng.Run(1, nil)
	env := envOf(eng, 0)

	// Non-RTS frames always yield fully.
	cts := &frames.Frame{Type: frames.CTS, Dst: 1, Duration: 9}
	if got := st.yieldDuration(env, cts); got != 9 {
		t.Errorf("CTS yield = %d, want full 9", got)
	}
	// RTS to an in-range receiver: full duration.
	rts := &frames.Frame{Type: frames.RTS, Dst: 1, Duration: 7}
	if got := st.yieldDuration(env, rts); got != 7 {
		t.Errorf("near-receiver RTS yield = %d, want 7", got)
	}
	// RTS to an out-of-range receiver: trimmed to the CTS window.
	far := &frames.Frame{Type: frames.RTS, Dst: 2, Duration: 7}
	ctsWindow := env.Timing().Control + 1
	if got := st.yieldDuration(env, far); got != ctsWindow {
		t.Errorf("far-receiver RTS yield = %d, want %d", got, ctsWindow)
	}
	// Unknown receiver address: conservative.
	unknown := &frames.Frame{Type: frames.RTS, Dst: 99, Duration: 7}
	if got := st.yieldDuration(env, unknown); got != 7 {
		t.Errorf("unknown receiver yield = %d, want 7", got)
	}
	// Group RTS with one near member: full duration.
	group := &frames.Frame{Type: frames.RTS, Dst: 2, Group: []frames.Addr{2, 1}, Duration: 12}
	if got := st.yieldDuration(env, group); got != 12 {
		t.Errorf("near-group RTS yield = %d, want 12", got)
	}
	// Group RTS with all members far: trimmed.
	farGroup := &frames.Frame{Type: frames.RTS, Dst: 2, Group: []frames.Addr{2}, Duration: 12}
	if got := st.yieldDuration(env, farGroup); got != ctsWindow {
		t.Errorf("far-group RTS yield = %d", got)
	}
	// Duration shorter than the CTS window: never extended.
	tiny := &frames.Frame{Type: frames.RTS, Dst: 2, Duration: 1}
	if got := st.yieldDuration(env, tiny); got != 1 {
		t.Errorf("tiny duration = %d, want 1", got)
	}
	// Optimisation disabled: always full.
	st.cfg.ExposedTerminalOpt = false
	if got := st.yieldDuration(env, far); got != 7 {
		t.Errorf("disabled opt must yield fully, got %d", got)
	}
}

// envOf digs the per-station Env out of the engine for white-box tests.
func envOf(eng *sim.Engine, node int) *sim.Env {
	return eng.EnvOf(node)
}

func TestGroupAddrs(t *testing.T) {
	got := GroupAddrs([]int{3, 1, 2})
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("GroupAddrs = %v", got)
	}
	if GroupAddrs(nil) == nil {
		t.Log("nil input yields empty (acceptable)")
	}
}

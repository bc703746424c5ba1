package dcf

// White-box tests of Station internals that the black-box suite cannot
// reach directly.

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
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

// TestCanRespondSemantics: station 0 overhears station 1's RTS frames to
// an address naming no station, first of its own exchange 42, then of a
// foreign exchange 7, both reserving through slot 30.
func TestCanRespondSemantics(t *testing.T) {
	var st *Station
	run := prototest.New([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}, 0.2,
		func(node int, env *sim.Env) sim.MAC {
			s := NewStation(node, mac.DefaultConfig(), nil)
			if node == 0 {
				st = s
			}
			return s
		})
	run.Engine.SetMAC(1, prototest.NewJammer().
		JamFrameAt(9, &frames.Frame{Type: frames.RTS, Dst: 5, MsgID: 42, Duration: 21}).
		JamFrameAt(10, &frames.Frame{Type: frames.RTS, Dst: 5, MsgID: 7, Duration: 20}))
	env := run.Engine.EnvOf(0)
	f := &frames.Frame{Type: frames.RTS, MsgID: 42, Dst: 0}
	canRespondAt := func(slot sim.Slot) bool {
		run.Steps(int(slot - run.Engine.Now()))
		return st.CanRespond(env, f)
	}
	if !canRespondAt(9) {
		t.Error("no reservations: must respond")
	}
	if !canRespondAt(10) {
		t.Error("own-exchange reservation must not block")
	}
	if canRespondAt(12) {
		t.Error("foreign reservation must block")
	}
	if canRespondAt(30) {
		t.Error("reservation covers through slot 30")
	}
	if !canRespondAt(31) {
		t.Error("expired reservation must unblock")
	}
}

// TestYieldDurationConservativeCases: how long station 0 yields after
// overhearing one frame from station 1, which is in its range; station 2
// is out of it.
func TestYieldDurationConservativeCases(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.9, 0.9)}
	yield := func(exposed bool, f *frames.Frame) int {
		run := prototest.New(pts, 0.2, func(node int, env *sim.Env) sim.MAC {
			return NewStation(node, mac.DefaultConfig(), nil)
		}, prototest.WithExposedTerminal(exposed))
		run.Engine.SetMAC(1, prototest.NewJammer().JamFrameAt(0, f))
		run.Steps(1)
		n := 0
		for env := run.Engine.EnvOf(0); env.Yielding(); n++ {
			run.Steps(1)
		}
		return n
	}
	ctsWindow := frames.DefaultTiming().Control + 1
	for _, c := range []struct {
		name string
		f    frames.Frame
		want int
	}{
		{"non-RTS frames yield fully", frames.Frame{Type: frames.CTS, Dst: 1, Duration: 9}, 9},
		{"RTS to an in-range receiver", frames.Frame{Type: frames.RTS, Dst: 1, Duration: 7}, 7},
		{"RTS to an out-of-range receiver", frames.Frame{Type: frames.RTS, Dst: 2, Duration: 7}, ctsWindow},
		{"unknown receiver address", frames.Frame{Type: frames.RTS, Dst: 99, Duration: 7}, 7},
		{"group RTS with one near member", frames.Frame{Type: frames.RTS, Dst: 2, Group: []frames.Addr{2, 1}, Duration: 12}, 12},
		{"group RTS with all members far", frames.Frame{Type: frames.RTS, Dst: 2, Group: []frames.Addr{2}, Duration: 12}, ctsWindow},
		{"duration shorter than the CTS window", frames.Frame{Type: frames.RTS, Dst: 2, Duration: 1}, 1},
	} {
		if got := yield(true, &c.f); got != c.want {
			t.Errorf("%s: yield = %d, want %d", c.name, got, c.want)
		}
	}
	if got := yield(false, &frames.Frame{Type: frames.RTS, Dst: 2, Duration: 7}); got != 7 {
		t.Errorf("option off: yield = %d, want the full 7", got)
	}
}

func TestGroupAddrs(t *testing.T) {
	got := groupAddrs(nil, []int{3, 1, 2})
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("GroupAddrs = %v", got)
	}
	// The buffer is reused: a shorter list overwrites it in place.
	again := groupAddrs(got, []int{5})
	if len(again) != 1 || again[0] != 5 || &again[0] != &got[0] {
		t.Errorf("groupAddrs(buf, [5]) = %v, want [5] in buf's storage", again)
	}
	if n := len(groupAddrs(got, nil)); n != 0 {
		t.Errorf("groupAddrs(buf, nil) has %d entries, want 0", n)
	}
}

package experiments

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// txCounter counts transmissions started.
type txCounter struct{ n int }

func (c *txCounter) Observe(ev sim.Event) {
	if ev.Kind == sim.EvFrameTx {
		c.n++
	}
}

// overhearRun builds four mutually in-range stations running p — 0 the
// station under test, 1 and 2 a group, 3 a sender — and hands f to
// station 0 with role rx. It reports whether station 0 is quiescent
// right after and how many frames the network sends over the next 40
// slots.
func overhearRun(t *testing.T, p Protocol, f *frames.Frame, rx sim.Rx) (quiet bool, sent int) {
	t.Helper()
	tp := topo.FromPoints([]geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.6, 0.6),
	}, 0.3)
	tr := &txCounter{}
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Tracer: []sim.Observer{tr}})
	factory, err := Factory(p, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var m sim.MAC
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		mm := factory(node, env)
		if node == 0 {
			m = mm
		}
		return mm
	})
	sl, ok := m.(sim.Sleeper)
	if !ok || !sl.Quiescent(eng.Now()+1) {
		t.Fatalf("%s: fresh station is not a quiescent Sleeper", p)
	}
	m.Deliver(eng.EnvOf(0), f, rx)
	quiet = sl.Quiescent(eng.Now() + 1)
	eng.Run(40, nil)
	return quiet, tr.n
}

// An overheard frame (rx == 0) only sets the NAV: for every protocol and
// every frame type, with and without a group, a quiescent station stays
// quiescent — which is what lets the engine skip the Quiescent call —
// and schedules nothing.
func TestOverheardFramesStopAtTheNAV(t *testing.T) {
	types := []frames.Type{frames.RTS, frames.CTS, frames.Data, frames.ACK, frames.RAK, frames.NAK}
	groups := [][]frames.Addr{nil, {1, 2}}
	for _, p := range ExtendedProtocols {
		for _, ft := range types {
			for _, g := range groups {
				for _, dst := range []frames.Addr{1, frames.BroadcastAddr} {
					f := &frames.Frame{Type: ft, Src: 3, Dst: dst, MsgID: 77, Duration: 9, Group: g}
					quiet, sent := overhearRun(t, p, f, 0)
					if !quiet || sent != 0 {
						t.Errorf("%s: overheard %s dst %v group %v: quiescent %v, %d frames sent",
							p, ft, dst, g, quiet, sent)
					}
				}
			}
		}
		// Control: the same station does answer a frame addressed to it,
		// so the quiet outcomes above are not vacuous.
		f := &frames.Frame{Type: frames.Data, Src: 3, Dst: 0, MsgID: 78}
		if quiet, sent := overhearRun(t, p, f, sim.RxAddressed); quiet || sent == 0 {
			t.Errorf("%s: addressed unicast DATA: quiescent %v, %d frames sent; want an ACK", p, quiet, sent)
		}
	}
}

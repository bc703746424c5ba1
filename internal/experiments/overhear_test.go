package experiments

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// txCounter counts transmissions started by stations other than skip.
type txCounter struct{ skip, n int }

func (c *txCounter) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

func (c *txCounter) Observe(ev *sim.Event) {
	if ev.Station != c.skip {
		c.n++
	}
}

// overhearRun builds four stations running p — 0 the station under test,
// 1 and 2 a group in its range, 3 a scripted sender only station 0 hears
// — and has station 3 send f in slot 0. Once f has aired it reports
// whether station 0 is quiescent and yielding, then how many frames the
// protocol stations send over the next 40 slots.
func overhearRun(t *testing.T, p Protocol, f *frames.Frame) (quiet, yielding bool, sent int) {
	t.Helper()
	tp := topo.FromPoints([]geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.62, 0.5), geom.Pt(0.5, 0.62), geom.Pt(0.38, 0.5),
	}, 0.15)
	tr := &txCounter{skip: 3}
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Observers: []sim.Observer{tr}})
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
	eng.SetMAC(3, prototest.NewJammer().JamFrameAt(0, f))
	// Ask as the engine does at the end of f's last slot.
	eng.Run(eng.Timing().Airtime(f.Type), nil)
	quiet, yielding = sl.Quiescent(eng.Now()), eng.EnvOf(0).Yielding()
	eng.Run(40, nil)
	return quiet, yielding, tr.n
}

// An overheard frame (rx == 0) only sets the NAV: for every protocol and
// every frame type, with and without a group, a quiescent station stays
// quiescent, yields for the frame's Duration and schedules nothing.
func TestOverheardFramesStopAtTheNAV(t *testing.T) {
	types := []frames.Type{frames.RTS, frames.CTS, frames.Data, frames.ACK, frames.RAK, frames.NAK}
	groups := [][]frames.Addr{nil, {1, 2}}
	for _, p := range ExtendedProtocols {
		for _, ft := range types {
			for _, g := range groups {
				for _, dst := range []frames.Addr{1, frames.BroadcastAddr} {
					f := &frames.Frame{Type: ft, Dst: dst, MsgID: 77, Duration: 9, Group: g}
					quiet, yielding, sent := overhearRun(t, p, f)
					if !quiet || !yielding || sent != 0 {
						t.Errorf("%s: overheard %s dst %v group %v: quiescent %v, yielding %v, %d frames sent",
							p, ft, dst, g, quiet, yielding, sent)
					}
				}
			}
		}
		// Control: the same station does answer a frame addressed to it,
		// so the quiet outcomes above are not vacuous.
		f := &frames.Frame{Type: frames.Data, Dst: 0, MsgID: 78}
		if quiet, _, sent := overhearRun(t, p, f); quiet || sent == 0 {
			t.Errorf("%s: addressed unicast DATA: quiescent %v, %d frames sent; want an ACK", p, quiet, sent)
		}
	}
}

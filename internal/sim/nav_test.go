package sim

// Differential oracles for the engine-owned NAV: the two-entry navState
// against the per-exchange reservation list it replaced, and the
// engine's raise rule against the receiver rule the dcf station applied
// when each MAC kept its own NAV.

import (
	"math/rand"
	"slices"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/topo"
)

// navTable is the per-station reservation list navState replaced (it was
// mac.NAVTable), kept as a differential oracle: one entry per exchange,
// until inclusive, expired entries pruned as the table is queried.
type navTable struct {
	res []reservation
}

type reservation struct {
	id    int64
	until Slot
}

// observeFor records a reservation of duration slots following now.
func (n *navTable) observeFor(msgID int64, now Slot, duration int) {
	if duration <= 0 {
		return
	}
	until := now + Slot(duration)
	n.prune(now)
	for i := range n.res {
		if r := &n.res[i]; r.id == msgID {
			r.until = max(r.until, until)
			return
		}
	}
	n.res = append(n.res, reservation{msgID, until})
}

func (n *navTable) yielding(now Slot) bool {
	n.prune(now)
	return len(n.res) > 0
}

func (n *navTable) yieldingToOther(msgID int64, now Slot) bool {
	n.prune(now)
	for _, r := range n.res {
		if r.id != msgID {
			return true
		}
	}
	return false
}

func (n *navTable) prune(now Slot) {
	n.res = slices.DeleteFunc(n.res, func(r reservation) bool { return r.until < now })
}

// navOracle rebuilds every station's NAV from the rx-ok events, with
// the receiver rule of the dcf station that kept its
// own NAV: a clean frame raises the receiver's NAV for its Duration
// unless it is group DATA naming the receiver or is addressed to it;
// with the exposed-terminal option, an RTS whose receivers all lie out
// of the receiver's range reserves only the CTS turnaround.
type navOracle struct {
	tp      *topo.Topology
	tm      frames.Timing
	exposed bool
	nav     []navTable
	// Non-vacuity counters: raises the exposed-terminal option shortened,
	// ticks spent yielding, and ticks at which some exchange was
	// exempt from the yield (its own reservation only) while another
	// was not.
	trimmed, yieldTicks, splitTicks int
}

func newNAVOracle(tp *topo.Topology, exposed bool) *navOracle {
	return &navOracle{tp: tp, tm: frames.DefaultTiming(), exposed: exposed, nav: make([]navTable, tp.N())}
}

func (o *navOracle) Kinds() KindSet { return Kinds(EvRxOK) }

func (o *navOracle) Observe(ev *Event) {
	if ev.Kind != EvRxOK {
		return
	}
	f, j := ev.Frame, ev.Station
	switch {
	case f.Type == frames.Data && slices.Contains(f.Group, frames.Addr(j)):
	case f.Dst == frames.Addr(j):
	case f.Duration > 0:
		d := o.yieldDuration(j, f)
		if d < f.Duration {
			o.trimmed++
		}
		o.nav[j].observeFor(f.MsgID, ev.Slot, d)
	}
}

// yieldDuration is the dcf station's exposed-terminal rule.
func (o *navOracle) yieldDuration(j int, f *frames.Frame) int {
	if !o.exposed || f.Type != frames.RTS {
		return f.Duration
	}
	me := o.tp.Pos(j)
	near := func(a frames.Addr) bool {
		return a < 0 || int(a) >= o.tp.N() || me.InRange(o.tp.Pos(int(a)), o.tp.Radius())
	}
	if f.Group == nil {
		if near(f.Dst) {
			return f.Duration
		}
	} else if slices.ContainsFunc(f.Group, near) {
		return f.Duration
	}
	ctsWindow := o.tm.Control + 1
	if ctsWindow > f.Duration {
		return f.Duration
	}
	return ctsWindow
}

// chaosIDs bounds the message IDs chaosMAC draws.
const chaosIDs = 50

// check compares the engine's answers for env's station with the
// oracle's at the current slot, for every exchange chaosMAC can name.
func (o *navOracle) check(t *testing.T, env *Env) {
	t.Helper()
	now, n := env.Now(), &o.nav[env.Node()]
	want := n.yielding(now)
	if got := env.Yielding(); got != want {
		t.Fatalf("slot %d station %d: Yielding = %v, want %v (reservations %v)", now, env.Node(), got, want, n.res)
	}
	exempt, blocked := false, false
	for id := int64(0); id < chaosIDs; id++ {
		want := n.yieldingToOther(id, now)
		if got := env.YieldingToOther(id); got != want {
			t.Fatalf("slot %d station %d: YieldingToOther(%d) = %v, want %v (reservations %v)",
				now, env.Node(), id, got, want, n.res)
		}
		exempt = exempt || !want
		blocked = blocked || want
	}
	if want {
		o.yieldTicks++
		if exempt && blocked {
			o.splitTicks++
		}
	}
}

// At every tick of every station, on both engine paths and with the
// exposed-terminal option off and on, Env.Yielding and
// Env.YieldingToOther agree with the reservation list fed by the
// receiver rule. Stations are swapped for fresh MACs along the way, and
// a fresh MAC starts with no reservation.
func TestNAVMatchesOracleUnderChaos(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, exposed := range []bool{false, true} {
			rng := rand.New(rand.NewSource(17))
			tp := topo.Uniform(20, 0.35, rng)
			o := newNAVOracle(tp, exposed)
			e := New(Config{Topo: tp, Seed: 4, Capture: capture.ZorziRao{}, Observers: []Observer{o},
				Reference: ref, ExposedTerminal: exposed})
			chaos := func(i int) *chaosMAC {
				return &chaosMAC{t: t, rng: rand.New(rand.NewSource(rng.Int63())), rate: 0.15, nav: o}
			}
			for i := 0; i < tp.N(); i++ {
				e.SetMAC(i, chaos(i))
			}
			for k := 0; k < 6; k++ {
				e.Run(500, nil)
				i := rng.Intn(tp.N())
				e.SetMAC(i, chaos(i))
				o.nav[i] = navTable{}
			}
			if o.yieldTicks == 0 || o.splitTicks == 0 || exposed != (o.trimmed > 0) {
				t.Errorf("reference=%v exposed=%v: vacuous run: %d yielding ticks, %d with an exempt exchange, %d trimmed raises",
					ref, exposed, o.yieldTicks, o.splitTicks, o.trimmed)
			}
		}
	}
}

// FuzzNAVState drives raises and fresh starts of the two-entry NAV with
// a clock that only moves forward from nowRaw, and checks yielding and
// yieldingToOther after every operation against a map oracle holding the
// furthest reservation per exchange. Each op is three bytes: kind,
// exchange ID, argument.
func FuzzNAVState(f *testing.F) {
	f.Add([]byte{1, 10, 2, 20, 1, 5}, int64(30))
	f.Add([]byte{1, 1, 5, 2, 0, 3, 1, 2, 9, 1, 1, 2, 2, 0, 7, 0, 3, 40}, int64(0))
	f.Add([]byte{0, 1, 30, 1, 1, 0, 2, 0, 200, 1, 1, 4, 3, 0, 0, 1, 2, 3}, int64(-17))
	f.Add([]byte{0, 1, 30, 0, 2, 35}, int64(0)) // a further exchange takes entry 0
	f.Fuzz(func(t *testing.T, ops []byte, nowRaw int64) {
		if len(ops) > 900 {
			t.Skip("too many ops")
		}
		var n navState
		oracle := map[int64]Slot{} // exclusive end per exchange
		now := Slot(uint64(nowRaw) % 300)
		for i := 0; i+2 < len(ops); i += 3 {
			id, arg := int64(ops[i+1]%6), Slot(ops[i+2])
			switch ops[i] % 4 {
			case 0, 1:
				end := now + arg%40 - 10
				n.raise(id, end)
				oracle[id] = max(oracle[id], end)
			case 2:
				now += arg % 8
			case 3:
				n = navState{}
				clear(oracle)
			}
			want := false
			for _, end := range oracle {
				want = want || end > now
			}
			if got := n.yielding(now); got != want {
				t.Fatalf("op %d at %d: yielding = %v, want %v", i/3, now, got, want)
			}
			for q := int64(0); q < 6; q++ {
				want := false
				for id, end := range oracle {
					want = want || (id != q && end > now)
				}
				if got := n.yieldingToOther(q, now); got != want {
					t.Fatalf("op %d at %d: yieldingToOther(%d) = %v, want %v", i/3, now, q, got, want)
				}
			}
		}
	})
}

func TestNAVStatePerExchange(t *testing.T) {
	var n navState
	if n.yielding(0) || n.yieldingToOther(1, 0) {
		t.Error("fresh NAV must be idle")
	}
	n.raise(7, 16) // exchange 7 reserves through slot 15
	if !n.yielding(12) {
		t.Error("reservation must register")
	}
	if n.yieldingToOther(7, 12) {
		t.Error("own exchange must not block")
	}
	if !n.yieldingToOther(8, 12) {
		t.Error("other exchange must block")
	}
	if n.yielding(16) {
		t.Error("reservation expired")
	}
}

func TestNAVStateExtension(t *testing.T) {
	var n navState
	n.raise(1, 11)
	n.raise(1, 9) // shorter: no shrink
	if !n.yielding(10) || n.yielding(11) {
		t.Errorf("reservation through 10: yielding(10) = %v, yielding(11) = %v", n.yielding(10), n.yielding(11))
	}
	n.raise(1, 21)
	if !n.yielding(20) || n.yielding(21) {
		t.Error("extension to 20 wrong")
	}
	n.raise(2, 26)
	if !n.yielding(25) || n.yielding(26) {
		t.Error("max over exchanges wrong")
	}
	// Exchange 1 expires at 21; only exchange 2 remains.
	if n.yieldingToOther(2, 22) {
		t.Error("expired foreign reservation still blocking")
	}
	if !n.yieldingToOther(1, 22) {
		t.Error("exchange 2 should block exchange 1's responses")
	}
	// A third exchange reaching less far than exchange 2 still blocks
	// exchange 2's responses.
	n.raise(3, 24)
	if !n.yieldingToOther(2, 23) || n.yieldingToOther(2, 24) {
		t.Error("exchange 3 must block exchange 2 through slot 23")
	}
}

// The raise rule: only a frame announcing a Duration and not directed at
// the receiver raises its NAV. Group DATA naming the receiver is
// directed at it; a group RTS naming it but addressed elsewhere is not.
func TestNAVRaiseRule(t *testing.T) {
	for _, c := range []struct {
		ft   frames.Type
		dur  int
		rx   Rx
		want bool
	}{
		{frames.RTS, 0, 0, false},
		{frames.Data, 0, RxMember, false},
		{frames.RTS, 5, 0, true},
		{frames.RTS, 5, RxAddressed, false},
		{frames.RTS, 5, RxAddressed | RxMember, false},
		{frames.RTS, 5, RxMember, true},
		{frames.Data, 5, RxMember, false},
		{frames.Data, 5, 0, true},
		{frames.CTS, 5, RxAddressed, false},
	} {
		f := &frames.Frame{Type: c.ft, Duration: c.dur}
		if got := raisesNAV(f, c.rx); got != c.want {
			t.Errorf("%s duration %d rx %b: raisesNAV = %v, want %v", c.ft, c.dur, c.rx, got, c.want)
		}
	}
}

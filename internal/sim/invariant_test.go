package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/topo"
)

// chaosMAC transmits random frames at random times, ignoring carrier
// sense entirely — a stress generator for channel invariants. Its frames
// carry random destinations and groups (duplicates, BroadcastAddr,
// NoAddr, IDs naming no station, nil and empty non-nil), and Deliver
// checks the engine's receiver role against the naive definition. With
// nav set, every Tick checks the engine's NAV against the oracle first.
type chaosMAC struct {
	t     *testing.T
	rng   *rand.Rand
	rate  float64
	roles *[4]int    // deliveries seen per Rx value, when non-nil
	nav   *navOracle // NAV oracle, when non-nil
}

func (m *chaosMAC) Tick(env *Env) *frames.Frame {
	if m.nav != nil {
		m.nav.check(m.t, env)
	}
	if env.Transmitting() || m.rng.Float64() >= m.rate {
		return nil
	}
	t := frames.RTS
	if m.rng.Float64() < 0.3 {
		t = frames.Data
	}
	return &frames.Frame{
		Type: t, Dst: chaosAddr(m.rng), Group: chaosGroup(m.rng),
		MsgID: int64(m.rng.Intn(chaosIDs)), Duration: m.rng.Intn(10),
	}
}

// chaosAddr draws a station ID, mostly among the first 20, sometimes one
// that names no station.
func chaosAddr(rng *rand.Rand) frames.Addr {
	switch rng.Intn(10) {
	case 0:
		return frames.BroadcastAddr
	case 1:
		return frames.NoAddr
	case 2:
		return frames.Addr(20 + rng.Intn(20)) // beyond every chaos topology
	default:
		return frames.Addr(rng.Intn(20))
	}
}

func chaosGroup(rng *rand.Rand) []frames.Addr {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []frames.Addr{}
	}
	g := make([]frames.Addr, 1+rng.Intn(8))
	for i := range g {
		g[i] = chaosAddr(rng)
	}
	return g
}

func (m *chaosMAC) Deliver(env *Env, f *frames.Frame, rx Rx) {
	j := frames.Addr(env.Node())
	var want Rx
	if f.Dst == j {
		want |= RxAddressed
	}
	if slices.Contains(f.Group, j) {
		want |= RxMember
	}
	if rx == 0 {
		m.t.Errorf("slot %d: station %d was handed an overheard frame (dst %v group %v)",
			env.Now(), j, f.Dst, f.Group)
	}
	if rx != want {
		m.t.Errorf("slot %d: station %d got rx %b for dst %v group %v, want %b",
			env.Now(), j, rx, f.Dst, f.Group, want)
	}
	if m.roles != nil {
		m.roles[rx]++
	}
}

func (m *chaosMAC) Submit(env *Env, req *Request) {}

// invariantTracer checks, for every delivery, that the frame was really
// transmitted by an in-range station and that its airtime elapsed.
type invariantTracer struct {
	t     *testing.T
	topo  *topo.Topology
	tm    frames.Timing
	start map[*frames.Frame]Slot
	txer  map[*frames.Frame]int
}

func (tr *invariantTracer) Kinds() KindSet { return Kinds(EvFrameTx, EvRxOK, EvRxLost) }

func (tr *invariantTracer) Observe(ev *Event) {
	f := ev.Frame
	switch ev.Kind {
	case EvFrameTx:
		if got := ev.End - ev.Start + 1; int(got) != tr.tm.Airtime(f.Type) {
			tr.t.Errorf("airtime of %v = %d slots, want %d", f, got, tr.tm.Airtime(f.Type))
		}
		tr.start[f] = ev.Start
		tr.txer[f] = ev.Station
	case EvRxOK:
		tr.rxOK(f, ev.Station, ev.Slot)
	case EvRxLost:
		if _, ok := tr.start[f]; !ok {
			tr.t.Errorf("lost frame %v was never transmitted", f)
		}
	}
}

func (tr *invariantTracer) rxOK(f *frames.Frame, receiver int, now Slot) {
	start, ok := tr.start[f]
	if !ok {
		tr.t.Errorf("delivered frame %v was never transmitted", f)
		return
	}
	if now != start+Slot(tr.tm.Airtime(f.Type))-1 {
		tr.t.Errorf("frame %v delivered at %d, started %d", f, now, start)
	}
	sender := tr.txer[f]
	if !tr.topo.InRange(sender, receiver) {
		tr.t.Errorf("frame from %d delivered out of range to %d", sender, receiver)
	}
	if sender == receiver {
		tr.t.Error("station received its own frame")
	}
}

func TestChannelInvariantsUnderChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tp := topo.Uniform(20, 0.3, rng)
	tr := &invariantTracer{
		t: t, topo: tp, tm: frames.DefaultTiming(),
		start: map[*frames.Frame]Slot{}, txer: map[*frames.Frame]int{},
	}
	e := New(Config{Topo: tp, Observers: []Observer{tr}, Seed: 5, Capture: capture.ZorziRao{}})
	for i := 0; i < tp.N(); i++ {
		e.SetMAC(i, &chaosMAC{t: t, rng: rand.New(rand.NewSource(int64(i))), rate: 0.2})
	}
	e.Run(2000, nil)
	if len(tr.start) == 0 {
		t.Fatal("chaos generated no transmissions")
	}
}

// Under chaos, every receiver of a clean slot either decodes or loses a
// frame — the union of rx-ok and rx-lost receivers per frame must equal the
// sender's in-range neighbor set.
func TestEveryNeighborAccountedFor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tp := topo.Uniform(15, 0.35, rng)
	counts := map[*frames.Frame]int{}
	senders := map[*frames.Frame]int{}
	ends := map[*frames.Frame]Slot{}
	tr := observeFunc(Kinds(EvFrameTx, EvRxOK, EvRxLost), func(ev *Event) {
		if ev.Kind == EvFrameTx {
			senders[ev.Frame] = ev.Station
			ends[ev.Frame] = ev.End
		} else {
			counts[ev.Frame]++
		}
	})
	e := New(Config{Topo: tp, Observers: []Observer{tr}, Seed: 9})
	for i := 0; i < tp.N(); i++ {
		e.SetMAC(i, &chaosMAC{t: t, rng: rand.New(rand.NewSource(100 + int64(i))), rate: 0.15})
	}
	e.Run(1500, nil)
	if len(senders) == 0 {
		t.Fatal("no transmissions")
	}
	for f, sender := range senders {
		if ends[f] >= 1500 {
			continue // still in the air when the run ended
		}
		if counts[f] != tp.Degree(sender) {
			t.Fatalf("frame %v from %d accounted %d receivers, degree %d",
				f, sender, counts[f], tp.Degree(sender))
		}
	}
}

// Full determinism under chaos + capture: identical seeds produce
// identical delivery traces.
func TestChaosDeterminism(t *testing.T) {
	run := func() string {
		rng := rand.New(rand.NewSource(33))
		tp := topo.Uniform(12, 0.3, rng)
		var log []string
		tr := observeFunc(Kinds(EvRxOK), func(ev *Event) {
			if ev.Kind == EvRxOK {
				log = append(log, fmt.Sprintf("%d:%s@%d", ev.Slot, ev.Frame.Type, ev.Station))
			}
		})
		imp := newLossyLinks(0.05, 78)
		e := New(Config{Topo: tp, Observers: []Observer{tr}, Seed: 77, Capture: capture.ZorziRao{}, Impairment: imp})
		for i := 0; i < tp.N(); i++ {
			e.SetMAC(i, &chaosMAC{t: t, rng: rand.New(rand.NewSource(7 + int64(i))), rate: 0.25})
		}
		e.Run(800, nil)
		if imp.erased == 0 || !drewEnginePRNG(e, 77) {
			t.Fatalf("vacuous run: %d erasures, engine PRNG drawn %v", imp.erased, drewEnginePRNG(e, 77))
		}
		return fmt.Sprint(log)
	}
	if run() != run() {
		t.Error("chaos runs with identical seeds diverged")
	}
}

func TestEnvAccessors(t *testing.T) {
	tp := topo.FromPoints([]geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.2, 0.2)}, 0.2)
	e := New(Config{Topo: tp})
	m := newScriptMAC()
	e.SetMAC(0, m)
	e.SetMAC(1, newScriptMAC())
	env := &e.envs[0]
	if env.Node() != 0 {
		t.Error("Node wrong")
	}
	if env.Pos() != geom.Pt(0.1, 0.2) {
		t.Error("Pos wrong")
	}
	if len(env.Neighbors()) != 1 || env.Neighbors()[0] != 1 {
		t.Error("Neighbors wrong")
	}
	if env.Timing() != frames.DefaultTiming() {
		t.Error("Timing wrong")
	}
	if env.Topo() != tp {
		t.Error("Topo wrong")
	}
	if env.Transmitting() {
		t.Error("fresh station transmitting?")
	}
	if env.Rand() == nil {
		t.Error("Rand nil")
	}
}

package sim

// Differential oracles for the engine's per-receiver bookkeeping: the
// receiver roles handed to Deliver, the flat first-signal collection in
// resolveSlot and the incrementally maintained awake worklist. Each is
// checked against the naive computation it replaced.

import (
	"math/rand"
	"slices"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/topo"
)

// Every delivery's Rx must be non-zero and equal f.Dst == j /
// slices.Contains(f.Group, j) (chaosMAC.Deliver checks both), on both
// engine paths, with several frames of different groups often completing
// in the same slot. Each of the three non-zero roles must show up, or
// the check is vacuous.
func TestRxRolesMatchNaiveUnderChaos(t *testing.T) {
	for _, ref := range []bool{false, true} {
		rng := rand.New(rand.NewSource(41))
		tp := topo.Uniform(20, 0.35, rng)
		var roles [4]int
		e := New(Config{Topo: tp, Seed: 3, Capture: capture.ZorziRao{}, Reference: ref})
		for i := 0; i < tp.N(); i++ {
			e.SetMAC(i, &chaosMAC{t: t, rng: rand.New(rand.NewSource(int64(i))), rate: 0.2, roles: &roles})
		}
		e.Run(3000, nil)
		for rx := 1; rx < len(roles); rx++ {
			if roles[rx] == 0 {
				t.Errorf("reference=%v: no delivery with rx %b; the oracle is vacuous", ref, rx)
			}
		}
	}
}

// legacyResolver is the signal collection resolveSlot replaced, kept as
// a differential oracle: every signal, the first one included, is
// appended to the receiving station's own slices.
type legacyResolver struct {
	sigTx, sigRx [][]int32
	touched      []int
	dists        []float64
}

func newLegacyResolver(n int) *legacyResolver {
	return &legacyResolver{sigTx: make([][]int32, n), sigRx: make([][]int32, n)}
}

func (l *legacyResolver) resolveSlot(e *Engine) {
	now := e.now
	e.slotCollided = false
	touched := l.touched[:0]
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] > now || e.txEnd[ti] < now {
			continue
		}
		for ri, j := range e.txRecv[ti] {
			if len(l.sigTx[j]) == 0 {
				touched = append(touched, j)
			}
			l.sigTx[j] = append(l.sigTx[j], int32(ti))
			l.sigRx[j] = append(l.sigRx[j], int32(ri))
		}
	}
	for _, j := range touched {
		if l.resolveStation(e, j) {
			e.slotCollided = true
		}
	}
	l.touched = touched[:0]
}

func (l *legacyResolver) resolveStation(e *Engine, j int) bool {
	now := e.now
	sigs := l.sigTx[j]
	collided := false
	switch {
	case e.txBusyUntil[j] >= now:
		if len(sigs) > 1 {
			collided = true
		}
		for k, ti := range sigs {
			e.txCorrupt[ti][l.sigRx[j][k]] = true
		}
	case len(sigs) == 1:
	default:
		collided = true
		d := l.dists[:0]
		for _, ti := range sigs {
			d = append(d, e.topo.Dist(j, int(e.txSender[ti])))
		}
		l.dists = d
		win := e.capture.Resolve(d, e.rng.Float64())
		for k, ti := range sigs {
			if k != win {
				e.txCorrupt[ti][l.sigRx[j][k]] = true
			}
		}
	}
	l.sigTx[j] = sigs[:0]
	l.sigRx[j] = l.sigRx[j][:0]
	return collided
}

// randomTxEngine builds an engine whose tx table holds random
// overlapping transmissions airing around slot 20: senders that are also
// receivers (half duplex) and same-sender overlaps. Deterministic in
// seed, so two calls build identical engines.
func randomTxEngine(seed int64, capm capture.Model) *Engine {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(30)
	tp := topo.Uniform(n, 0.15+0.45*rng.Float64(), rng)
	e := New(Config{Topo: tp, Seed: seed, Capture: capm})
	types := []frames.Type{frames.RTS, frames.CTS, frames.Data, frames.ACK, frames.RAK}
	const t0 = 20
	for rows := rng.Intn(14); rows > 0; rows-- {
		e.now = t0 - Slot(rng.Intn(6))
		e.startTx(rng.Intn(n), &frames.Frame{Type: types[rng.Intn(len(types))]})
	}
	e.now = t0
	return e
}

// resolveSlot must mark exactly the corruption, raise exactly the
// collision flags and consume exactly the PRNG draws of the
// per-station-slice collection, slot after slot.
func TestResolveMatchesPerStationSlices(t *testing.T) {
	collisions, draws := 0, 0
	for trial := int64(0); trial < 400; trial++ {
		var capm capture.Model = capture.None{}
		if trial%2 == 1 {
			capm = capture.ZorziRao{}
		}
		opt, ref := randomTxEngine(trial, capm), randomTxEngine(trial, capm)
		legacy := newLegacyResolver(ref.topo.N())
		for s := 0; s < 6; s++ {
			opt.resolveSlot()
			legacy.resolveSlot(ref)
			if opt.slotCollided != ref.slotCollided {
				t.Fatalf("trial %d slot %d: collided %v, per-station slices say %v",
					trial, opt.now, opt.slotCollided, ref.slotCollided)
			}
			if opt.slotCollided {
				collisions++
			}
			for ti := 0; ti < opt.txN; ti++ {
				if !slices.Equal(opt.txCorrupt[ti], ref.txCorrupt[ti]) {
					t.Fatalf("trial %d slot %d row %d: corrupt %v, per-station slices say %v",
						trial, opt.now, ti, opt.txCorrupt[ti], ref.txCorrupt[ti])
				}
			}
			for j, sf := range opt.sigFirst {
				if sf.n != 0 {
					t.Fatalf("trial %d slot %d: station %d left %d signals behind", trial, opt.now, j, sf.n)
				}
			}
			opt.now++
			ref.now++
		}
		a, b := opt.rng.Int63(), ref.rng.Int63()
		if a != b {
			t.Fatalf("trial %d: PRNG diverged (%d vs %d)", trial, a, b)
		}
		if a != rand.New(rand.NewSource(trial)).Int63() {
			draws++
		}
	}
	if collisions == 0 || draws == 0 {
		t.Fatalf("vacuous: %d collided slots, %d trials with capture draws", collisions, draws)
	}
}

// toggleMAC is a Sleeper whose quiescence a test flips at will; it
// records the last slot it ticked.
type toggleMAC struct {
	quiet    bool
	lastTick Slot
}

func (m *toggleMAC) Tick(env *Env) *frames.Frame     { m.lastTick = env.Now(); return nil }
func (m *toggleMAC) Deliver(*Env, *frames.Frame, Rx) {}
func (m *toggleMAC) Submit(*Env, *Request)           {}
func (m *toggleMAC) Quiescent(Slot) bool             { return m.quiet }

// naiveAwake is the O(stations) rebuild the incremental worklist
// replaced.
func naiveAwake(e *Engine) []int {
	var out []int
	for i, m := range e.macs {
		if m != nil && !e.asleep[i] {
			out = append(out, i)
		}
	}
	return out
}

// Under a random schedule of wakes, quiescence flips, SetMAC swaps and
// steps, the awake worklist equals the naive rebuild — strictly
// ascending, no sleeper left behind — after every operation, and every
// step ticks exactly the stations the naive rebuild names.
func TestAwakeWorklistMatchesRebuild(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(8))
	e := New(Config{Topo: lineTopo(n, 0.1, 0.05)})
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			e.SetMAC(i, &toggleMAC{quiet: rng.Intn(2) == 0, lastTick: -1})
		}
	}
	wakes := 0
	for op := 0; op < 20000; op++ {
		i := rng.Intn(n)
		switch k := rng.Intn(20); {
		case k < 6:
			if m, ok := e.macs[i].(*toggleMAC); ok {
				m.quiet = !m.quiet
			}
		case k < 12:
			if e.asleep[i] {
				wakes++
			}
			e.wake(i)
		case k < 13:
			if rng.Intn(3) == 0 {
				e.SetMAC(i, nil)
			} else {
				e.SetMAC(i, &toggleMAC{quiet: rng.Intn(2) == 0, lastTick: -1})
			}
		default:
			want := naiveAwake(e)
			now := e.now
			e.Step()
			var ticked []int
			for j, m := range e.macs {
				if m, ok := m.(*toggleMAC); ok && m.lastTick == now {
					ticked = append(ticked, j)
				}
			}
			if !slices.Equal(ticked, want) {
				t.Fatalf("op %d: slot %d ticked %v, want %v", op, now, ticked, want)
			}
		}
		if e.awakeDirty {
			continue // SetMAC pending: the next step rebuilds
		}
		if want := naiveAwake(e); !slices.Equal(e.awake, want) {
			t.Fatalf("op %d: worklist %v, naive rebuild %v", op, e.awake, want)
		}
	}
	if wakes < 1000 {
		t.Fatalf("schedule woke only %d sleeping stations", wakes)
	}
}

// EvDataRx fires for every in-range decoder of a DATA frame, not only
// for its intended receivers: station 2 below is neither addressed nor
// in the group, and still reported.
func TestOverhearerGetsOnDataRx(t *testing.T) {
	var receivers []int
	obs := observeFunc(Kinds(EvDataRx), func(ev *Event) {
		if ev.Kind == EvDataRx {
			receivers = append(receivers, ev.Station)
		}
	})
	e, macs := engineWithScripts(t, lineTopo(3, 0.05, 0.15), Config{Observers: []Observer{obs}})
	f := ctl(frames.Data, 0, 1)
	f.Group = []frames.Addr{1}
	macs[0].at(0, f)
	e.Run(10, nil)
	if want := []int{1, 2}; !slices.Equal(receivers, want) {
		t.Fatalf("EvDataRx receivers = %v, want %v (overhearer included)", receivers, want)
	}
}

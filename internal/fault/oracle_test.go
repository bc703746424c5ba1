package fault

import (
	"fmt"
	"math"
	"testing"

	"relmac/internal/sim"
)

// mapInjector is the injector as it was before link states moved into
// neighbour-parallel rows: one map entry per directed link, one call per
// (sender, receiver, slot) query, and the log1p holding-time formula
// evaluated on every draw. It is kept as the oracle FuzzInjector holds
// the row-based injector to.
type mapInjector struct {
	cfg     Config
	links   map[uint64]*mapLink
	logStay [2]float64
	nodes   []nodeSched

	iidErasures, geErasures, crashDrops, crashDowns int64
}

type mapLink struct {
	bad   bool
	until sim.Slot
	k     uint64
}

func newMapInjector(cfg Config) *mapInjector {
	m := &mapInjector{cfg: cfg}
	if cfg.GE.Enabled() {
		m.links = make(map[uint64]*mapLink)
		m.logStay = [2]float64{math.Log1p(-cfg.GE.PGoodBad), math.Log1p(-cfg.GE.PBadGood)}
	}
	return m
}

func (m *mapInjector) u01(stream, key uint64, t sim.Slot) float64 {
	h := mix64(uint64(m.cfg.Seed) ^ mix64(stream^mix64(key^mix64(uint64(t)))))
	return float64(h>>11) / (1 << 53)
}

// erase answers one reception the way the engine used to ask: crash
// first, then the i.i.d. axis, then the link's burst state.
func (m *mapInjector) erase(sender, receiver int, now sim.Slot) bool {
	if m.down(receiver, now) {
		m.crashDrops++
		return true
	}
	key := linkKey(sender, receiver)
	if m.cfg.PER > 0 && m.u01(streamIID, key, now) < m.cfg.PER {
		m.iidErasures++
		return true
	}
	if m.links != nil {
		per := m.cfg.GE.PERGood
		if m.linkBad(key, now) {
			per = m.cfg.GE.PERBad
		}
		if per > 0 && m.u01(streamGEErase, key, now) < per {
			m.geErasures++
			return true
		}
	}
	return false
}

func (m *mapInjector) linkBad(key uint64, now sim.Slot) bool {
	st := m.links[key]
	if st == nil {
		st = &mapLink{until: -1}
		st.until += m.holdTime(key, st)
		m.links[key] = st
	}
	for st.until <= now && st.until != never {
		st.bad = !st.bad
		d := m.holdTime(key, st)
		if d > never-st.until {
			d = never - st.until
		}
		st.until += d
	}
	return st.bad
}

func (m *mapInjector) holdTime(key uint64, st *mapLink) sim.Slot {
	lq := m.logStay[0]
	if st.bad {
		lq = m.logStay[1]
	}
	st.k++
	if lq == 0 {
		return never
	}
	h := math.Floor(math.Log1p(-m.u01(streamGEHold, key, sim.Slot(st.k)))/lq) + 1
	if h >= float64(never) {
		return never
	}
	return sim.Slot(h)
}

func (m *mapInjector) down(station int, now sim.Slot) bool {
	if !m.cfg.Crash.Enabled() {
		return false
	}
	if station >= len(m.nodes) {
		m.nodes = append(m.nodes, make([]nodeSched, station+1-len(m.nodes))...)
	}
	s := &m.nodes[station]
	if s.k == 0 {
		s.until = m.drawInterval(station, s, m.cfg.Crash.MTTF)
	}
	for s.until <= now {
		s.down = !s.down
		mean := m.cfg.Crash.MTTF
		if s.down {
			mean = m.cfg.Crash.MTTR
			m.crashDowns++
		}
		s.until += m.drawInterval(station, s, mean)
	}
	return s.down
}

func (m *mapInjector) drawInterval(station int, s *nodeSched, mean float64) sim.Slot {
	s.k++
	u := m.u01(streamCrash, uint64(uint32(station))<<32|s.k, 0)
	d := sim.Slot(math.Ceil(-mean * math.Log(1-u)))
	if d < 1 {
		d = 1
	}
	return d
}

// fuzzProbs are the probabilities the fuzzer picks from, the extremes
// of the holding-time draw among them.
var fuzzProbs = [8]float64{0, 1e-9, 0.005, 0.1, 0.25, 0.5, 0.9, 1}

// fuzzMeans are the crash interval means the fuzzer picks from.
var fuzzMeans = [4]float64{1, 3, 50, 1500}

// byteStream hands out the fuzzer's bytes, then zeros.
type byteStream []byte

func (b *byteStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzInjector drives the row-based injector and the map-keyed oracle
// through the same query sequence — frames completing at
// non-decreasing slots with random collision masks, crash states read
// at announced flips the way the engine reads them, and topology swaps
// that replace every sender's receiver list — and demands identical
// decisions, crash states and counters.
func FuzzInjector(f *testing.F) {
	f.Add(int64(1), []byte{2, 4, 3, 5, 1, 0, 1, 0, 3, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3})
	f.Add(int64(7), []byte{1, 1, 6, 2, 5, 2, 0, 200, 17, 33, 64, 128, 255, 1, 2, 3, 200, 100})
	f.Add(int64(20020818), []byte{7, 7, 7, 7, 7, 3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		in := byteStream(data)
		cfg := Config{Seed: seed}
		cfg.PER = fuzzProbs[in.next()%8] * float64(in.next()%2)
		if in.next()%2 == 1 {
			cfg.GE = GilbertElliott{
				PGoodBad: fuzzProbs[in.next()%8], PBadGood: fuzzProbs[in.next()%8],
				PERGood: fuzzProbs[in.next()%8] * float64(in.next()%2), PERBad: fuzzProbs[in.next()%8],
			}
		}
		if c := in.next(); c%2 == 1 {
			cfg.Crash = Crash{MTTF: fuzzMeans[c/2%4], MTTR: fuzzMeans[c/8%4]}
		}
		inj, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newMapInjector(cfg)

		const n = 6
		topo := func() [][]int {
			nb := make([][]int, n)
			for s := range nb {
				mask := in.next()
				for j := 0; j < n; j++ {
					if j != s && mask>>j&1 == 1 {
						nb[s] = append(nb[s], j)
					}
				}
			}
			return nb
		}
		cur := topo()
		prev := cur
		down := make([]bool, n)
		next := make([]sim.Slot, n)
		var now sim.Slot
		for i := range next {
			down[i], next[i] = inj.Crash(i, now)
		}
		for op := 0; len(in) > 0 && op < 256; op++ {
			c := in.next()
			// Mostly short steps, and a few long gaps; the horizon stays
			// small so fast chains (p = 1, MTTF 1) catch up cheaply.
			if dt := sim.Slot(in.next()); dt == 255 && now < 1<<14 {
				now += 1 << 12
			} else {
				now += dt % 8
			}
			for i := range next {
				if next[i] <= now {
					down[i], next[i] = inj.Crash(i, now)
				}
				if want := oracle.down(i, now); down[i] != want {
					t.Fatalf("slot %d station %d: down %v, oracle %v", now, i, down[i], want)
				}
			}
			if c%8 == 0 {
				prev, cur = cur, topo()
				continue
			}
			sender := int(c/8) % n
			recv := cur[sender]
			if c&0x80 != 0 {
				recv = prev[sender] // launched before the last swap
			}
			lost := make([]bool, len(recv))
			want := make([]bool, len(recv))
			cmask := in.next()
			for k := range recv {
				lost[k] = cmask>>k&1 == 1 && cmask&0xc0 == 0xc0
				want[k] = lost[k] || oracle.erase(sender, recv[k], now)
			}
			var d []bool
			if cfg.Crash.Enabled() {
				d = down
			}
			inj.Erase(sender, recv, lost, d, now)
			for k := range recv {
				if lost[k] != want[k] {
					t.Fatalf("slot %d link %d→%d: lost %v, oracle %v", now, sender, recv[k], lost[k], want[k])
				}
			}
		}
		iid, ge := inj.Erasures()
		drops, downs := inj.CrashStats()
		if iid != oracle.iidErasures || ge != oracle.geErasures || drops != oracle.crashDrops || downs != oracle.crashDowns {
			t.Fatalf("counters (iid %d, ge %d, drops %d, downs %d), oracle (%d, %d, %d, %d)",
				iid, ge, drops, downs, oracle.iidErasures, oracle.geErasures, oracle.crashDrops, oracle.crashDowns)
		}
	})
}

// TestFaultGeometricDrawExact checks the bracketed holding-time draw
// against the log1p formula it replaces, floor(log1p(-u)/lq)+1, over
// 10^7 hashed uniforms per leave probability plus both ends of the
// range, u = 0 and the largest u below 1. At the probabilities the
// channel models use, the bracket must also decide nearly every draw
// itself, or the fast path would be dead code. It is single-goroutine
// arithmetic, so a -race build skips it: the plain run checks it once.
func TestFaultGeometricDrawExact(t *testing.T) {
	if raceBuild {
		t.Skip("single-goroutine arithmetic: nothing for the race detector to check")
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, p := range []float64{1e-9, 0.005, 0.25, 0.5, 1} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			t.Parallel()
			inj := mustInjector(t, Config{GE: GilbertElliott{PGoodBad: p, PBadGood: p, PERBad: 1}, Seed: 3})
			lq := math.Log1p(-p)
			check := func(u float64) {
				want := sim.Slot(math.Floor(math.Log1p(-u)/lq) + 1)
				if got := inj.geometric(0, u); got != want {
					t.Fatalf("u=%v: geometric %d, log1p formula %d", u, got, want)
				}
			}
			check(0)
			check(1 - 0x1p-53)
			decided := 0
			for i := 0; i < draws; i++ {
				u := inj.u01(streamGEHold, 0x5eed, sim.Slot(i))
				check(u)
				if _, ok := inj.floorFast(0, u); ok {
					decided++
				}
			}
			frac := float64(decided) / float64(draws)
			t.Logf("bracket decided %.6f of %d draws", frac, draws)
			if p >= 0.005 && p < 1 && frac < 0.99 {
				t.Errorf("bracket decided only %.4f of draws", frac)
			}
		})
	}
}

package core

// Differential tests of the shared cover-angle store: MCS(S) and UPDATE
// computed from stored angles must equal geom.MinCoverSet and
// geom.Update on the believed points, bit for bit, on generated
// topologies, with location noise, at the range edge, for co-located
// stations, on the greedy-only set sizes and across a topology swap.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"relmac/internal/geom"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// densityNodes mirrors experiments.DensityPoints (Figures 6(a), 9(a),
// 10(a)); the experiments package imports core, so it cannot be used
// here.
var densityNodes = []int{30, 60, 100, 150, 200}

// storeOracle checks one receiver sequence: the store's MCS(S) and, for
// a few ACK sets drawn from the cover (so every ACKer is itself in S),
// its UPDATE must equal the point-based computations, and every stored
// angle must equal a direct CoverAngle call.
func storeOracle(t *testing.T, env *sim.Env, geo *coverStore, locs *NoisyLocations, S []int, rng *rand.Rand) {
	t.Helper()
	r := env.Topo().Radius()
	pts := make([]geom.Point, len(S))
	for k, id := range S {
		pts[k] = believedPos(locs, env, id)
	}
	want := geom.MinCoverSet(pts, r)
	got := slices.Clone(geo.minCoverSet(env, S))
	if !slices.Equal(got, want) {
		t.Fatalf("|S|=%d: store MCS %v, points MCS %v", len(S), got, want)
	}
	for a, i := range S {
		nb, row := geo.row(env, i)
		for b, j := range S {
			ga, gok := geo.angle(env, i, j, nb, row)
			wa, wok := geom.CoverAngle(pts[a], pts[b], r)
			if ga != wa || gok != wok {
				t.Fatalf("angle(%d,%d) = %v,%v; CoverAngle = %v,%v", i, j, ga, gok, wa, wok)
			}
		}
	}
	cover := make([]int, len(want))
	for k, idx := range want {
		cover[k] = S[idx]
	}
	for trial := 0; trial < 3; trial++ {
		var acked []int
		for _, id := range cover {
			if rng.Intn(3) > 0 {
				acked = append(acked, id)
			}
		}
		if len(acked) == 0 {
			acked = cover[:1]
		}
		ackPts := make([]geom.Point, len(acked))
		for k, id := range acked {
			ackPts[k] = believedPos(locs, env, id)
		}
		var wantRem []int
		for _, idx := range geom.Update(pts, ackPts, r) {
			wantRem = append(wantRem, S[idx])
		}
		if gotRem := geo.update(env, S, acked); !slices.Equal(gotRem, wantRem) {
			t.Fatalf("|S|=%d acked %v: store UPDATE %v, points UPDATE %v", len(S), acked, gotRem, wantRem)
		}
	}
}

func TestCoverStoreMatchesPointsAtDensityPoints(t *testing.T) {
	for _, sigma := range []float64{0, 0.01, 0.05} {
		for _, n := range densityNodes {
			rng := rand.New(rand.NewSource(int64(n) + int64(sigma*1000)))
			tp := topo.Uniform(n, 0.2, rng)
			_, env := newTestEngine(tp)
			var locs *NoisyLocations
			if sigma > 0 {
				locs = &NoisyLocations{Sigma: sigma, Seed: int64(n)}
			}
			geo := newCoverStore(locs)
			greedy := 0
			for sender := 0; sender < tp.N(); sender += 3 {
				S := slices.Clone(tp.Neighbors(sender))
				if len(S) < 2 {
					continue
				}
				if len(S) > geom.ExactMCSLimit {
					greedy++
				}
				storeOracle(t, env, geo, locs, S, rng)
				rng.Shuffle(len(S), func(i, j int) { S[i], S[j] = S[j], S[i] })
				storeOracle(t, env, geo, locs, S[:1+rng.Intn(len(S))], rng)
			}
			if n == 200 && greedy == 0 {
				t.Fatalf("n=%d: no receiver set above ExactMCSLimit; the greedy path went untested", n)
			}
		}
	}
}

// edgePair searches for two points exactly at range r where topo's
// squared-distance test and CoverAngle's Hypot test disagree: with
// neighbor set, Dist2 <= r*r but Hypot > r; otherwise the reverse.
func edgePair(t *testing.T, rng *rand.Rand, r float64, neighbor bool) (geom.Point, geom.Point) {
	for k := 0; k < 1_000_000; k++ {
		p := geom.Pt(0.4+0.2*rng.Float64(), 0.4+0.2*rng.Float64())
		th := rng.Float64() * 2 * math.Pi
		q := geom.Pt(p.X+r*math.Cos(th), p.Y+r*math.Sin(th))
		if p.InRange(q, r) == neighbor {
			if _, ok := geom.CoverAngle(p, q, r); ok != neighbor {
				return p, q
			}
		}
	}
	t.Fatal("no disagreeing pair found")
	return geom.Point{}, geom.Point{}
}

// TestCoverStoreRangeEdgeAndCoLocated builds topologies around a sender
// whose receivers include a range-edge pair (in both directions of
// disagreement) and co-located stations.
func TestCoverStoreRangeEdgeAndCoLocated(t *testing.T) {
	const r = 0.2
	rng := rand.New(rand.NewSource(9))
	for _, neighbor := range []bool{true, false} {
		p, q := edgePair(t, rng, r, neighbor)
		mid := geom.Pt((p.X+q.X)/2, (p.Y+q.Y)/2)
		pts := []geom.Point{mid, p, q, p, mid}
		for len(pts) < 12 {
			pts = append(pts, geom.Pt(mid.X+0.1*(rng.Float64()-0.5), mid.Y+0.1*(rng.Float64()-0.5)))
		}
		tp := topo.FromPoints(pts, r)
		if tp.InRange(1, 2) != neighbor {
			t.Fatalf("neighbor=%v: topology disagrees with the constructed pair", neighbor)
		}
		_, env := newTestEngine(tp)
		geo := newCoverStore(nil)
		S := slices.Clone(tp.Neighbors(0))
		if !slices.Contains(S, 1) || !slices.Contains(S, 2) {
			t.Fatalf("neighbor=%v: edge pair not among the sender's receivers %v", neighbor, S)
		}
		storeOracle(t, env, geo, nil, S, rng)
		slices.Reverse(S)
		storeOracle(t, env, geo, nil, S, rng)
	}
}

// TestCoverStoreLargeSets covers |S| > 64, beyond the exact search's
// bitmask width: 90 stations inside one radius of each other.
func TestCoverStoreLargeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 90)
	for i := range pts {
		pts[i] = geom.Pt(0.5+0.18*(rng.Float64()-0.5), 0.5+0.18*(rng.Float64()-0.5))
	}
	tp := topo.FromPoints(pts, 0.2)
	_, env := newTestEngine(tp)
	for _, sigma := range []float64{0, 0.01} {
		var locs *NoisyLocations
		if sigma > 0 {
			locs = &NoisyLocations{Sigma: sigma, Seed: 5}
		}
		geo := newCoverStore(locs)
		S := slices.Clone(tp.Neighbors(0))
		if len(S) <= 64 {
			t.Fatalf("|S| = %d, want > 64", len(S))
		}
		storeOracle(t, env, geo, locs, S, rng)
		storeOracle(t, env, geo, locs, S[:40], rng)
	}
}

// TestCoverStoreTopologySwap swaps the engine's topology under a bound
// store: rows computed against the old snapshot must be dropped.
func TestCoverStoreTopologySwap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tp1 := topo.Uniform(100, 0.2, rng)
	tp2 := topo.Uniform(100, 0.2, rng)
	eng, env := newTestEngine(tp1)
	geo := newCoverStore(nil)
	p := newLAMMPicker(nil, geo)
	ref := newLAMMPicker(nil, nil)
	senders := []int{0, 7, 19, 42}
	for _, tp := range []*topo.Topology{tp1, tp2, tp1} {
		eng.SetTopology(tp)
		for _, s := range senders {
			S := slices.Clone(tp1.Neighbors(s)) // the same sequence on every snapshot
			if len(S) < 2 {
				continue
			}
			storeOracle(t, env, geo, nil, S, rng)
			if got, want := p.Poll(env, S), ref.Poll(env, S); !slices.Equal(got, want) {
				t.Fatalf("Poll after swap: %v, reference %v", got, want)
			}
		}
	}
}

// fuzzTopology decodes a topology for FuzzCoverUpdate: the first byte
// picks 2–41 stations and the location noise, then each station reads an
// op byte (the input repeats when it runs short). By op&3 a station is
// fresh (two bytes per coordinate, inside one radius of the centre), a
// copy of an earlier one, at exactly r from an earlier one, or an
// earlier one moved by up to ±1.3e-9 per coordinate.
func fuzzTopology(data []byte) (*topo.Topology, *NoisyLocations) {
	const r = 0.2
	n := 2 + int(data[0])%40
	var locs *NoisyLocations
	if data[0] >= 128 {
		locs = &NoisyLocations{Sigma: 0.01 * float64(1+data[0]%3), Seed: int64(data[0])}
	}
	body := data[1:]
	at := 0
	next := func() byte {
		b := body[at%len(body)]
		at++
		return b
	}
	word := func() float64 {
		hi := next()
		return float64(uint16(hi)<<8|uint16(next())) / 65535
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		op := next() & 3
		if i == 0 || op == 0 {
			pts[i] = geom.Pt(0.5+2*r*(word()-0.5), 0.5+2*r*(word()-0.5))
			continue
		}
		p := pts[int(next())%i]
		switch op {
		case 1:
			pts[i] = p
		case 2:
			th := 2 * math.Pi * word()
			pts[i] = geom.Pt(p.X+r*math.Cos(th), p.Y+r*math.Sin(th))
		case 3:
			tiny := func() float64 { return float64(int(next())-128) * 1e-11 }
			pts[i] = p.Add(geom.Pt(tiny(), tiny()))
		}
	}
	return topo.FromPoints(pts, r), locs
}

// FuzzCoverUpdate checks the store against the point-based geometry on
// decoded topologies: for every station's receiver set (its neighbours,
// in an order and with ACK sets drawn from the input), the store's MCS(S)
// must equal geom.MinCoverSet and its UPDATE must equal geom.Update on
// the believed points, whether the arrangement or the float sweep
// decided it.
func FuzzCoverUpdate(f *testing.F) {
	f.Add([]byte{8, 0, 0x80, 0, 0x80, 0, 0, 0x90, 0, 0x70, 0, 1, 0, 2, 1, 0x40, 0})
	f.Add([]byte{20, 0, 0x10, 0x20, 0x30, 0x40, 0, 0x50, 0x60, 0x70, 0x80, 3, 0, 0x81, 0x7f})
	f.Add([]byte{39, 0xff, 0x00, 0x7f, 0x3c, 0xc3, 0x5a, 0xa5, 0x01, 0xfe, 0x42, 0x24, 0x99})
	f.Add([]byte{140, 0, 0x80, 0, 0x80, 0, 2, 0, 0x20, 0, 2, 1, 0x90, 0x10, 1, 0, 3, 0, 0x90, 0x70})
	f.Add([]byte{200, 0, 0x60, 0, 0xa0, 0, 0, 0xa0, 0, 0x60, 0, 0, 0x80, 0, 0x80, 0, 3, 2, 0x85, 0x7a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a header and at least one body byte")
		}
		tp, locs := fuzzTopology(data)
		_, env := newTestEngine(tp)
		geo := newCoverStore(locs)
		r := tp.Radius()
		for sender := 0; sender < tp.N(); sender++ {
			S := slices.Clone(tp.Neighbors(sender))
			if len(S) < 1 {
				continue
			}
			if data[sender%len(data)]&1 != 0 {
				slices.Reverse(S)
			}
			pts := make([]geom.Point, len(S))
			for k, id := range S {
				pts[k] = believedPos(locs, env, id)
			}
			if got, want := geo.minCoverSet(env, S), geom.MinCoverSet(pts, r); !slices.Equal(got, want) {
				t.Fatalf("sender %d: store MCS %v, points MCS %v", sender, got, want)
			}
			for trial := 0; trial < 3; trial++ {
				var acked []int
				var ackPts []geom.Point
				for k, id := range S {
					if data[(sender+k*3+trial)%len(data)]>>uint(trial)&3 == 0 {
						acked = append(acked, id)
						ackPts = append(ackPts, pts[k])
					}
				}
				var want []int
				for _, idx := range geom.Update(pts, ackPts, r) {
					want = append(want, S[idx])
				}
				if got := geo.update(env, S, acked); !slices.Equal(got, want) {
					t.Fatalf("sender %d acked %v: store UPDATE %v, points UPDATE %v", sender, acked, got, want)
				}
			}
		}
	})
}

// TestCoverStoreUpdateFallbacksRun proves both of UPDATE's branches run:
// with exact locations every test is decided on the stations'
// arrangements, and with noisy ones an ACKer off a station's neighbour
// list (a believed position in range of a true non-neighbour) sends the
// test to the float sweep; both agree with geom.Update throughout.
func TestCoverStoreUpdateFallbacksRun(t *testing.T) {
	for _, sigma := range []float64{0, 0.05} {
		rng := rand.New(rand.NewSource(31))
		tp := topo.Uniform(150, 0.2, rng)
		_, env := newTestEngine(tp)
		var locs *NoisyLocations
		if sigma > 0 {
			locs = &NoisyLocations{Sigma: sigma, Seed: 3}
		}
		geo := newCoverStore(locs)
		tests := 0
		for sender := 0; sender < tp.N(); sender += 2 {
			S := slices.Clone(tp.Neighbors(sender))
			if len(S) < 2 {
				continue
			}
			storeOracle(t, env, geo, locs, S, rng)
			tests += 3 * len(S)
		}
		switch {
		case sigma == 0 && geo.floatCovers != 0:
			t.Errorf("exact locations: %d of %d UPDATE tests swept in floats", geo.floatCovers, tests)
		case sigma > 0 && (geo.floatCovers == 0 || geo.floatCovers == tests):
			t.Errorf("noisy locations: %d of %d UPDATE tests swept in floats, want some but not all", geo.floatCovers, tests)
		}
	}
}

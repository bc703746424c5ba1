package geom

import (
	"math"
	"slices"
	"testing"
)

// FuzzArcSet checks the float coverage rule against arbitrary arc
// soups: the measure of the merged list stays within [0, 2π], its gaps
// complement it, CircleCovered holds exactly when no gap is left (and
// then at most 2·coverEps is uncovered), and the decision does not
// depend on the order the arcs come in.
func FuzzArcSet(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, 5.0, 6.0)
	f.Add(0.0, 6.28, 1.0, 2.0, 3.0, 4.0)
	f.Add(-1.0, 1.0, 2.5, 9.0, 4.0, 4.0)
	f.Fuzz(func(t *testing.T, a1, b1, a2, b2, a3, b3 float64) {
		for _, v := range []float64{a1, b1, a2, b2, a3, b3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip("out of modelled range")
			}
		}
		arcs := []Arc{NewArc(a1, b1), NewArc(a2, b2), NewArc(a3, b3)}
		segs, full := union(arcs...)
		cov := measureOf(segs)
		if cov < 0 || cov > FullCircle+1e-9 {
			t.Fatalf("coverage out of range: %v", cov)
		}
		gaps := gapsOf(segs)
		var gapSum float64
		for _, g := range gaps {
			if g.Measure() <= coverEps {
				t.Fatalf("gap %v within coverEps", g)
			}
			gapSum += g.Measure()
		}
		if math.Abs(gapSum+cov-FullCircle) > 1e-6 {
			t.Fatalf("gaps %v + covered %v != 2π", gapSum, cov)
		}
		if full != (len(gaps) == 0) {
			t.Fatalf("CircleCovered=%v but gaps %v (segments %v)", full, gaps, segs)
		}
		if full && FullCircle-cov > 2*coverEps+1e-12 {
			t.Fatalf("full, but %v uncovered", FullCircle-cov)
		}
		slices.Reverse(arcs)
		if _, rev := union(arcs...); rev != full {
			t.Fatalf("CircleCovered=%v, reversed %v for %v", full, rev, arcs)
		}
	})
}

// FuzzCoverSet checks that MinCoverSet always returns a valid cover set
// for arbitrary small point clouds.
func FuzzCoverSet(f *testing.F) {
	f.Add(0.5, 0.5, 0.55, 0.5, 0.5, 0.55, 0.6, 0.6)
	f.Add(0.1, 0.1, 0.9, 0.9, 0.1, 0.9, 0.9, 0.1)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64) {
		coords := []float64{x1, y1, x2, y2, x3, y3, x4, y4}
		pts := make([]Point, 0, 4)
		for i := 0; i < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 10 || math.Abs(y) > 10 {
				t.Skip("out of modelled range")
			}
			pts = append(pts, Pt(x, y))
		}
		mcs := MinCoverSet(pts, 0.2)
		if len(mcs) == 0 {
			t.Fatal("empty cover set for non-empty input")
		}
		if !IsCoverSet(pts, mcs, 0.2) {
			t.Fatalf("MinCoverSet(%v) = %v is not a cover set", pts, mcs)
		}
		greedy := GreedyCoverSet(pts, 0.2)
		if len(greedy) < len(mcs) {
			t.Fatalf("greedy (%d) beat the exact minimum (%d)", len(greedy), len(mcs))
		}
	})
}

// decodeCoverPoints turns fuzz bytes into 1–40 points. The first byte
// picks the point count and the cluster spread; then each point reads an
// op byte, and the input repeats when it runs short. By op&7 a point is
//   - 0–3: fresh, two bytes per coordinate inside the cluster;
//   - 4: a copy of an earlier point (co-located);
//   - 5: at exactly r from an earlier point, in a direction from two bytes
//     (Dist2 and Hypot may disagree with r by an ulp either way);
//   - 6: an earlier point moved by up to ±1.3e-9 per coordinate, so its
//     cover angles for the others nearly coincide with that point's and
//     the pair straddles CoverAngle's co-location cut at coverEps;
//   - 7: placed so that an earlier point's cover angle for it starts or
//     ends within ±1.3e-9 rad of the 0/2π seam.
func decodeCoverPoints(data []byte, r float64) []Point {
	n := 1 + int(data[0])%40
	spread := 0.1 + 0.5*float64(data[0]/40)/6 // 0.1 … 0.6
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
	tiny := func() float64 { return float64(int(next())-128) * 1e-11 }
	pts := make([]Point, n)
	for i := range pts {
		op := next() & 7
		if i == 0 || op < 4 {
			x := 0.5 + spread*(word()-0.5)
			pts[i] = Pt(x, 0.5+spread*(word()-0.5))
			continue
		}
		p := pts[int(next())%i]
		switch op {
		case 4:
			pts[i] = p
		case 5:
			th := 2 * math.Pi * word()
			pts[i] = Pt(p.X+r*math.Cos(th), p.Y+r*math.Sin(th))
		case 6:
			pts[i] = p.Add(Pt(tiny(), tiny()))
		case 7:
			d := r * (0.05 + 0.95*word())
			mid := math.Acos(d/(2*r)) + tiny()
			if next()&1 != 0 {
				mid = -mid
			}
			pts[i] = Pt(p.X+d*math.Cos(mid), p.Y+d*math.Sin(mid))
		}
	}
	return pts
}

// FuzzCoverTable drives the MCS(S) search with 1–40 points decoded by
// decodeCoverPoints, so it reaches the greedy-only sizes above
// ExactMCSLimit that LAMM's dense receiver sets produce, and the
// co-located, range-edge and near-coinciding arcs where the arrangement
// hands decisions to the float sweep. Oracles:
//   - MinCoverSet, the greedy and (up to 18 points) the exact search are
//     byte-equal to oracleTable, the float search the arrangement
//     replaced, and so is coveredBy on masks drawn from the input;
//   - the result is a cover set under the point-based IsCoverSet;
//   - up to 8 points, no smaller subset is a cover set (brute force);
//   - a reused table, first filled with other points and then set pair
//     by pair from direct CoverAngle calls in reverse order, returns the
//     same cover as the MinCoverSet wrapper.
func FuzzCoverTable(f *testing.F) {
	f.Add([]byte{3, 0, 0x80, 0, 0x80, 0, 0, 0x90, 0, 0x80, 0, 0, 0x80, 0, 0x90, 0})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{24, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0})
	f.Add([]byte{39, 0xff, 0x00, 0x7f, 0x3c, 0xc3, 0x5a, 0xa5, 0x01, 0xfe, 0x42, 0x24, 0x99})
	// Co-located points: op 4 copies.
	f.Add([]byte{5, 0, 0x70, 0x10, 0x90, 0x20, 4, 0, 4, 0, 0, 0x60, 0, 0x60, 0, 4, 2})
	// Pairs at exactly r: op 5.
	f.Add([]byte{6, 0, 0x80, 0, 0x80, 0, 5, 0, 0x20, 0, 5, 1, 0x90, 0x10, 5, 0, 0x55, 0x55})
	// Arc endpoints within coverEps of each other: op 6 near-copies.
	f.Add([]byte{10, 0, 0x80, 0, 0x7f, 0, 6, 0, 0x81, 0x7f, 0, 0x60, 0, 0x90, 0, 6, 1, 0x80, 0x82})
	f.Add([]byte{22, 0, 0x40, 0, 0xc0, 0, 6, 0, 0x80, 0x80, 6, 0, 0x7f, 0x81, 6, 1, 0x85, 0x7a})
	// Arc endpoints within coverEps of the 0/2π seam: op 7.
	f.Add([]byte{8, 0, 0x80, 0, 0x80, 0, 7, 0, 0x40, 0, 0x80, 0, 7, 0, 0xa0, 0, 0x83, 1, 7, 1, 0x60, 0, 0x7d, 0})
	f.Add([]byte{30, 0, 0x80, 0, 0x80, 0, 7, 0, 0xff, 0xff, 0x80, 1, 7, 0, 0x10, 0, 0x81, 0, 6, 2, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a header and at least one body byte")
		}
		const r = 0.2
		pts := decodeCoverPoints(data, r)
		n := len(pts)

		mcs := MinCoverSet(pts, r)
		if len(mcs) == 0 || !IsCoverSet(pts, mcs, r) {
			t.Fatalf("MinCoverSet(%v) = %v is not a cover set", pts, mcs)
		}
		ref := newOracleTable(pts, r)
		if want := ref.minCoverSet(); !slices.Equal(mcs, want) {
			t.Fatalf("MinCoverSet(%v) = %v, float search %v", pts, mcs, want)
		}
		var tab CoverTable
		tab.Fill(pts, r)
		if got, want := tab.greedyCoverSet(), naiveGreedyCoverSet(pts, r); !slices.Equal(got, want) {
			t.Fatalf("greedy(%v) = %v, float greedy %v", pts, got, want)
		}
		if n <= ExactMCSLimit+2 {
			if got, want := tab.exactCoverSet(), ref.exactCoverSet(); !slices.Equal(got, want) {
				t.Fatalf("exact(%v) = %v, float exact %v", pts, got, want)
			}
		}
		tab.arrange()
		for k := 0; k < 4; k++ {
			mask := uint64(0)
			for i := 0; i < n; i++ {
				if data[(i+k*n)%len(data)]&(1<<uint(k)) != 0 {
					mask |= 1 << uint(i)
				}
			}
			for i := 0; i < n; i++ {
				if got, want := tab.coveredBy(i, mask), ref.coveredBy(i, mask); got != want {
					t.Fatalf("coveredBy(%d, %b) = %v, float sweep %v for %v", i, mask, got, want, pts)
				}
			}
		}
		if n <= 8 {
			for mask := 1; mask < 1<<n; mask++ {
				var sub []int
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						sub = append(sub, i)
					}
				}
				if len(sub) < len(mcs) && IsCoverSet(pts, sub, r) {
					t.Fatalf("cover %v of %v is smaller than MinCoverSet's %v", sub, pts, mcs)
				}
			}
		}

		other := make([]Point, 0, n+3)
		for i := len(pts) - 1; i >= 0; i-- {
			other = append(other, pts[i].Add(Pt(0.01, 0)))
		}
		tab.Fill(append(other, Pt(0, 0), Pt(1, 1), Pt(0.5, 0.5)), r)
		tab.MinCoverSet()
		tab.Reset(n)
		for i := n - 1; i >= 0; i-- {
			for j := n - 1; j >= 0; j-- {
				if i != j {
					a, ok := CoverAngle(pts[i], pts[j], r)
					tab.Set(i, j, a, ok)
				}
			}
		}
		if got := tab.MinCoverSet(); !slices.Equal(got, mcs) {
			t.Fatalf("reused table gave %v, MinCoverSet %v for %v", got, mcs, pts)
		}
	})
}

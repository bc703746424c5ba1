package geom

import (
	"math"
	"slices"
	"testing"
)

// FuzzArcSet checks the core ArcSet invariants against arbitrary arc
// soups: coverage stays within [0, 2π], gaps complement coverage, and
// IsFull agrees with the uncovered measure.
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
		var s ArcSet
		s.Add(NewArc(a1, b1))
		s.Add(NewArc(a2, b2))
		s.Add(NewArc(a3, b3))
		cov := s.Covered()
		if cov < 0 || cov > FullCircle+1e-9 {
			t.Fatalf("coverage out of range: %v", cov)
		}
		var gapSum float64
		for _, g := range s.Gaps() {
			if g.Measure() < 0 {
				t.Fatalf("negative gap %v", g)
			}
			gapSum += g.Measure()
		}
		if math.Abs(gapSum+cov-FullCircle) > 1e-6 {
			t.Fatalf("gaps %v + covered %v != 2π", gapSum, cov)
		}
		if s.IsFull() != (s.Uncovered() < 1e-6) {
			t.Fatalf("IsFull=%v but uncovered=%v", s.IsFull(), s.Uncovered())
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

// FuzzCoverTable drives the MCS(S) search with 1–40 points decoded from
// the input bytes, so it reaches the greedy-only sizes above
// ExactMCSLimit that LAMM's dense receiver sets produce. The first byte
// picks the point count and the cluster spread; every point takes two
// bytes per coordinate (the input repeats when it runs short, so equal
// byte runs give co-located points). Oracles:
//   - the result is a cover set under the point-based IsCoverSet;
//   - up to 8 points, no smaller subset is a cover set (brute force);
//   - a reused table, first filled with other points and then set pair
//     by pair from direct CoverAngle calls in reverse order, returns the
//     same cover as the MinCoverSet wrapper.
func FuzzCoverTable(f *testing.F) {
	f.Add([]byte{3, 0x80, 0, 0x80, 0, 0x90, 0, 0x80, 0, 0x80, 0, 0x90, 0})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{24, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0})
	f.Add([]byte{39, 0xff, 0x00, 0x7f, 0x3c, 0xc3, 0x5a, 0xa5, 0x01, 0xfe, 0x42, 0x24, 0x99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a header and at least one coordinate byte")
		}
		const r = 0.2
		n := 1 + int(data[0])%40
		spread := 0.1 + 0.5*float64(data[0]/40)/6 // 0.1 … 0.6
		body := data[1:]
		at := 0
		coord := func() float64 {
			hi, lo := body[at%len(body)], body[(at+1)%len(body)]
			at += 2
			return 0.5 + spread*(float64(uint16(hi)<<8|uint16(lo))/65535-0.5)
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(coord(), coord())
		}

		mcs := MinCoverSet(pts, r)
		if len(mcs) == 0 || !IsCoverSet(pts, mcs, r) {
			t.Fatalf("MinCoverSet(%v) = %v is not a cover set", pts, mcs)
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

		var tab CoverTable
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

package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gapTable is a four-node table whose node 0 is covered by the arcs of
// nodes 1–3 except for one gap of the given width at angle 2; nodes 1–3
// see each other whole, so only node 0's coverage is in question.
func gapTable(gap float64) *CoverTable {
	var t CoverTable
	t.Reset(4)
	t.Set(0, 1, Arc{Lo: 0, Hi: 2}, true)
	t.Set(0, 2, Arc{Lo: 2 + gap, Hi: 4}, true)
	t.Set(0, 3, Arc{Lo: 4, Hi: FullCircle}, true)
	for i := 1; i < 4; i++ {
		for j := 1; j < 4; j++ {
			if i != j {
				t.Set(i, j, FullArc(), true)
			}
		}
	}
	return &t
}

// TestCoverTableFallbacksRun proves both branches of every bitset
// decision run and agree with the float search: random clusters are
// up to 32 points (at most 63 elementary arcs per node) are nearly all
// decided on the arrangement alone (three circles meeting within
// tinyArc of one point are rare, not impossible), a gap within tinyArc goes to the
// float sweep (which forgives it below coverEps and not above), and
// co-located points tie the greedy scores exactly, which the float
// re-ranking breaks.
func TestCoverTableFallbacksRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const r = 0.2
	var tab CoverTable
	searches := 0
	for trial := 0; trial < 200; trial++ {
		pts := clusterPoints(rng, 2+rng.Intn(31), Pt(0.5, 0.5), r*(0.5+rng.Float64()))
		tab.Fill(pts, r)
		if got, want := tab.MinCoverSet(), newOracleTable(pts, r).minCoverSet(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: MinCoverSet %v, float search %v", trial, got, want)
		}
		if tab.clean {
			searches++
		}
	}
	if searches < 190 || tab.floatGreedies != 200-searches {
		t.Fatalf("random clusters: %d clean of 200, %d float covers, %d float greedies",
			searches, tab.floatCovers, tab.floatGreedies)
	}

	for _, c := range []struct {
		gap  float64
		want bool
	}{{0.5 * coverEps, true}, {1.5 * coverEps, false}, {3 * coverEps, false}} {
		tab := gapTable(c.gap)
		tab.arrange()
		if got := tab.coveredBy(0, 0b1110); got != c.want {
			t.Errorf("gap %g: coveredBy = %v, want %v", c.gap, got, c.want)
		}
		if got := tab.greedyCoverSet(); len(got) == 0 {
			t.Errorf("gap %g: empty greedy cover", c.gap)
		}
		float := c.gap <= tinyArc
		if (tab.floatCovers > 0) != float || (tab.floatGreedies > 0) != float {
			t.Errorf("gap %g: %d float covers, %d float greedies; want them only within tinyArc",
				c.gap, tab.floatCovers, tab.floatGreedies)
		}
	}

	pts := []Point{Pt(0.5, 0.5), Pt(0.6, 0.5), Pt(0.6, 0.5), Pt(0.5, 0.62), Pt(0.5, 0.62)}
	tab.Fill(pts, r)
	got, want := tab.greedyCoverSet(), naiveGreedyCoverSet(pts, r)
	if !slices.Equal(got, want) || tab.ties == 0 {
		t.Fatalf("co-located: greedy %v (float %v) with %d re-ranked picks", got, want, tab.ties)
	}
}

// TestArrangementMatchesCircleCovered checks Arrangement.Covered against
// the float CircleCovered on random arc lists, up to 60 arcs so the masks
// take two words, over random subsets; and that a gap within tinyArc is
// left to the float sweep.
func TestArrangementMatchesCircleCovered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var arr Arrangement
	var tab CoverTable
	var scratch []Arc
	decided := 0
	for trial := 0; trial < 300; trial++ {
		arcs := make([]Arc, 1+rng.Intn(60))
		use := make([]bool, len(arcs))
		for k := range arcs {
			arcs[k] = CenteredArc(rng.Float64()*FullCircle, 2*math.Pi/3+rng.Float64()*math.Pi/3)
			if rng.Intn(40) == 0 {
				arcs[k] = FullArc()
			}
			use[k] = rng.Intn(8) > 0
		}
		tab.Arrange(&arr, arcs, use)
		for sub := 0; sub < 10; sub++ {
			acc := make([]uint64, arr.Words())
			var chosen []Arc
			for k := range arcs {
				if use[k] && rng.Intn(3) == 0 {
					arr.Or(acc, k)
					chosen = append(chosen, arcs[k])
				}
			}
			var want bool
			want, scratch = CircleCovered(chosen, scratch)
			got, sure := arr.Covered(acc)
			if !sure {
				t.Fatalf("trial %d: undecided without a tiny elementary arc", trial)
			}
			if got != want {
				t.Fatalf("trial %d: Covered = %v, CircleCovered %v for %v", trial, got, want, chosen)
			}
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("no decisions")
	}
	arcs := []Arc{{Lo: 0, Hi: 2}, {Lo: 2 + coverEps/2, Hi: 4}, {Lo: 4, Hi: FullCircle}}
	tab.Arrange(&arr, arcs, []bool{true, true, true})
	acc := make([]uint64, arr.Words())
	for k := range arcs {
		arr.Or(acc, k)
	}
	if _, sure := arr.Covered(acc); sure {
		t.Fatal("a gap within tinyArc was decided on the bitsets")
	}
}

// TestCoverTableMatchesFloatOnSymmetricSets runs the search on regular
// polygons, one or two rings, with and without a centre point, where
// many greedy scores tie exactly and the float rule breaks the ties by
// rounding: MinCoverSet and the greedy must still equal the float search's,
// and the re-ranking must have run.
func TestCoverTableMatchesFloatOnSymmetricSets(t *testing.T) {
	const r = 0.2
	var tab CoverTable
	for k := 3; k <= 12; k++ {
		for _, d := range []float64{0.03, 0.07, 0.1, 0.13, 0.17, 0.2} {
			for _, rot := range []float64{0, 0.1, math.Pi / 7, 1} {
				for mode := 0; mode < 4; mode++ {
					var pts []Point
					if mode&1 != 0 {
						pts = append(pts, Pt(0.5, 0.5))
					}
					rings := 1 + mode>>1
					for ring := 1; ring <= rings; ring++ {
						for i := 0; i < k; i++ {
							th := rot + (2*float64(i)+float64(ring-1))*math.Pi/float64(k)
							rr := d * float64(ring) / float64(rings)
							pts = append(pts, Pt(0.5+rr*math.Cos(th), 0.5+rr*math.Sin(th)))
						}
					}
					ref := newOracleTable(pts, r)
					tab.Fill(pts, r)
					if got, want := tab.MinCoverSet(), ref.minCoverSet(); !slices.Equal(got, want) {
						t.Fatalf("k=%d d=%v rot=%v mode=%d: MinCoverSet %v, float search %v", k, d, rot, mode, got, want)
					}
					if got, want := tab.greedyCoverSet(), naiveGreedyCoverSet(pts, r); !slices.Equal(got, want) {
						t.Fatalf("k=%d d=%v rot=%v mode=%d: greedy %v, float greedy %v", k, d, rot, mode, got, want)
					}
				}
			}
		}
	}
	if tab.ties == 0 {
		t.Fatal("no greedy pick was re-ranked in floats")
	}
}

package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// clusterPoints generates n points inside a disk of radius spread around a
// center, mimicking the neighbor set of a multicast sender.
func clusterPoints(rng *rand.Rand, n int, center Point, spread float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		th := rng.Float64() * 2 * math.Pi
		d := rng.Float64() * spread
		pts[i] = Pt(center.X+d*math.Cos(th), center.Y+d*math.Sin(th))
	}
	return pts
}

func TestMinCoverSetEmptyAndSingleton(t *testing.T) {
	if got := MinCoverSet(nil, 0.2); len(got) != 0 {
		t.Errorf("MCS(∅) = %v", got)
	}
	got := MinCoverSet([]Point{Pt(0.5, 0.5)}, 0.2)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("MCS of singleton = %v", got)
	}
}

func TestMinCoverSetCoLocated(t *testing.T) {
	pts := []Point{Pt(0.3, 0.3), Pt(0.3, 0.3), Pt(0.3, 0.3)}
	got := MinCoverSet(pts, 0.2)
	if len(got) != 1 {
		t.Errorf("three co-located nodes need exactly one representative, got %v", got)
	}
}

func TestMinCoverSetSpreadNodes(t *testing.T) {
	// Nodes pairwise farther than R apart: nothing covers anything.
	pts := []Point{Pt(0, 0), Pt(0.5, 0), Pt(0, 0.5), Pt(0.5, 0.5)}
	got := MinCoverSet(pts, 0.2)
	if len(got) != 4 {
		t.Errorf("mutually distant nodes are all mandatory, got %v", got)
	}
}

func TestMinCoverSetIsCoverSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const r = 0.2
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		pts := clusterPoints(rng, n, Pt(0.5, 0.5), r)
		got := MinCoverSet(pts, r)
		if len(got) == 0 {
			t.Fatalf("trial %d: empty cover set for %d points", trial, n)
		}
		if !IsCoverSet(pts, got, r) {
			t.Fatalf("trial %d: MCS result %v is not a cover set of %v", trial, got, pts)
		}
	}
}

// The exact solver must never be beaten by any smaller subset.
func TestExactCoverSetMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const r = 0.25
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(7) // keep brute force cheap
		pts := clusterPoints(rng, n, Pt(0.5, 0.5), r*0.9)
		got := ExactCoverSet(pts, r)
		if !IsCoverSet(pts, got, r) {
			t.Fatalf("trial %d: exact result not a cover set", trial)
		}
		// Brute force: check no subset strictly smaller is a cover set.
		k := len(got)
		total := 1 << n
		for mask := 1; mask < total; mask++ {
			var sub []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					sub = append(sub, i)
				}
			}
			if len(sub) >= k {
				continue
			}
			if IsCoverSet(pts, sub, r) {
				t.Fatalf("trial %d: found smaller cover set %v than exact %v", trial, sub, got)
			}
		}
	}
}

func TestGreedyCoverSetValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	const r = 0.2
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(12)
		pts := clusterPoints(rng, n, Pt(0.5, 0.5), r)
		got := GreedyCoverSet(pts, r)
		if !IsCoverSet(pts, got, r) {
			t.Fatalf("trial %d: greedy result %v invalid", trial, got)
		}
		exact := ExactCoverSet(pts, r)
		if len(got) < len(exact) {
			t.Fatalf("trial %d: greedy (%d) beat exact (%d)?!", trial, len(got), len(exact))
		}
		// Greedy should not be wildly worse on these small instances.
		if len(got) > 2*len(exact)+1 {
			t.Errorf("trial %d: greedy %d vs exact %d", trial, len(got), len(exact))
		}
	}
}

func TestGreedyCoverSetEdgeCases(t *testing.T) {
	if got := GreedyCoverSet(nil, 0.2); len(got) != 0 {
		t.Errorf("greedy(∅) = %v", got)
	}
	got := GreedyCoverSet([]Point{Pt(0, 0)}, 0.2)
	if len(got) != 1 {
		t.Errorf("greedy singleton = %v", got)
	}
}

func TestMinCoverSetRoutesByLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const r = 0.2
	pts := clusterPoints(rng, ExactMCSLimit+4, Pt(0.5, 0.5), r)
	got := MinCoverSet(pts, r)
	if !IsCoverSet(pts, got, r) {
		t.Fatal("large-set route produced an invalid cover set")
	}
}

func TestCoverSetSizeBound(t *testing.T) {
	const r = 0.2
	// Two tight clusters far apart: every cover set needs ≥… the bound
	// counts nodes not coverable by all others. In a tight cluster each
	// node is covered by co-located peers only if peers are close enough;
	// use exact co-location to make the bound crisp.
	pts := []Point{Pt(0.1, 0.1), Pt(0.1, 0.1), Pt(0.9, 0.9)}
	if got := CoverSetSizeBound(pts, r); got != 1 {
		t.Errorf("bound = %d, want 1 (only the isolated node is mandatory)", got)
	}
	lonely := []Point{Pt(0, 0), Pt(0.5, 0.5)}
	if got := CoverSetSizeBound(lonely, r); got != 2 {
		t.Errorf("bound = %d, want 2", got)
	}
}

func TestCoverSetBoundNeverExceedsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const r = 0.22
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		pts := clusterPoints(rng, n, Pt(0.5, 0.5), r)
		bound := CoverSetSizeBound(pts, r)
		exact := len(ExactCoverSet(pts, r))
		if bound > exact {
			t.Fatalf("trial %d: lower bound %d exceeds optimum %d", trial, bound, exact)
		}
	}
}

// LAMM's motivating property: for dense receiver sets the minimum cover
// set is substantially smaller than the full set.
func TestMCSShrinksDenseSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const r = 0.2
	shrunk := 0
	for trial := 0; trial < 20; trial++ {
		pts := clusterPoints(rng, 12, Pt(0.5, 0.5), r/3)
		got := MinCoverSet(pts, r)
		if len(got) < len(pts) {
			shrunk++
		}
	}
	if shrunk < 15 {
		t.Errorf("MCS shrank only %d/20 dense sets; expected nearly all", shrunk)
	}
}

func BenchmarkExactCoverSet10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := clusterPoints(rng, 10, Pt(0.5, 0.5), 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactCoverSet(pts, 0.2)
	}
}

func BenchmarkGreedyCoverSet30(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := clusterPoints(rng, 30, Pt(0.5, 0.5), 0.18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyCoverSet(pts, 0.2)
	}
}

func BenchmarkDiskCovered(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := Pt(0.5, 0.5)
	cover := clusterPoints(rng, 12, p, 0.18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiskCovered(p, cover, 0.2)
	}
}

// naiveGreedyCoverSet is GreedyCoverSet written straight from its
// definition, point by point: every score recomputed from CoverAngle at
// every step, pruning decided by IsCoverSet. It is the one oracle for
// both table greedies, the bitset one and the float one, and for their
// reused buffers.
func naiveGreedyCoverSet(pts []Point, r float64) []int {
	n := len(pts)
	if n <= 1 {
		return MinCoverSet(pts, r)
	}
	selected := make([]bool, n)
	acc := make([][]Arc, n)
	covered := make([]float64, n)
	uncov := func(i int) float64 {
		if selected[i] {
			return 0
		}
		return FullCircle - covered[i]
	}
	var order []int
	for {
		var open []int
		for i := 0; i < n; i++ {
			if !selected[i] && uncov(i) > coverEps {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			break
		}
		best, bestScore := -1, -1.0
		for j := 0; j < n; j++ {
			if selected[j] {
				continue
			}
			score := uncov(j)
			for _, i := range open {
				if i == j {
					continue
				}
				if a, ok := CoverAngle(pts[i], pts[j], r); ok {
					score += naiveCoveredWith(acc[i], a) - covered[i]
				}
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		selected[best] = true
		order = append(order, best)
		for i := 0; i < n; i++ {
			if a, ok := CoverAngle(pts[i], pts[best], r); ok && i != best {
				acc[i] = mergeArc(acc[i], a)
				covered[i] = measureOf(acc[i])
			}
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		trial := append(append([]int(nil), order[:k]...), order[k+1:]...)
		if len(trial) > 0 && IsCoverSet(pts, trial, r) {
			order = trial
		}
	}
	slices.Sort(order)
	return order
}

// naiveCoveredWith is coveredWith by its definition: append a's split
// segments to segs, stable-sort by Lo, sweep.
func naiveCoveredWith(segs []Arc, a Arc) float64 {
	all := splitArc(append([]Arc(nil), segs...), a)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Lo < all[j].Lo })
	total, reach := 0.0, -1.0
	for _, s := range all {
		if s.Lo > reach {
			total += s.Hi - s.Lo
			reach = s.Hi
		} else if s.Hi > reach {
			total += s.Hi - reach
			reach = s.Hi
		}
	}
	return math.Min(total, FullCircle)
}

// TestGreedyCoverSetMatchesNaive pins the table search's greedy rule to
// the definition on the set sizes LAMM meets, 2–40 receivers, with one
// reused table across all trials: the greedy as routed, and the float
// greedy run on every table, clean or not.
func TestGreedyCoverSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r = 0.2
	var tab CoverTable
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(39)
		pts := clusterPoints(rng, n, Pt(0.5, 0.5), r*(0.5+rng.Float64()))
		want := naiveGreedyCoverSet(pts, r)
		tab.Fill(pts, r)
		if got := tab.greedyCoverSet(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): table greedy %v, naive %v", trial, n, got, want)
		}
		if got := tab.greedyFloat(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): float greedy %v, naive %v", trial, n, got, want)
		}
	}
}

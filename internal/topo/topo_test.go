package topo

import (
	"math"
	"math/rand"
	"testing"

	"relmac/internal/geom"
)

func TestFromPointsNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := Uniform(80, 0.2, rng)
	for i := 0; i < tp.N(); i++ {
		for _, j := range tp.Neighbors(i) {
			found := false
			for _, k := range tp.Neighbors(j) {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d→%d", i, j)
			}
		}
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tp := Uniform(120, 0.17, rng)
	for i := 0; i < tp.N(); i++ {
		want := map[int]bool{}
		for j := 0; j < tp.N(); j++ {
			if j != i && tp.Pos(i).InRange(tp.Pos(j), 0.17) {
				want[j] = true
			}
		}
		got := tp.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("node %d: got %d neighbors, want %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("node %d: spurious neighbor %d", i, j)
			}
		}
		for k := 1; k < len(got); k++ {
			if got[k] <= got[k-1] {
				t.Fatalf("node %d: neighbor list not sorted: %v", i, got)
			}
		}
	}
}

func TestNoSelfNeighbor(t *testing.T) {
	tp := FromPoints([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5)}, 0.2)
	for i := 0; i < tp.N(); i++ {
		for _, j := range tp.Neighbors(i) {
			if j == i {
				t.Fatalf("node %d lists itself as neighbor", i)
			}
		}
	}
	if tp.Degree(0) != 1 || tp.Degree(1) != 1 {
		t.Error("co-located nodes must be each other's neighbors")
	}
}

func TestGridTopology(t *testing.T) {
	tp := Grid(3, 3, 0.51)
	if tp.N() != 9 {
		t.Fatalf("N = %d", tp.N())
	}
	// Spacing 0.5: radius 0.51 reaches lattice neighbors but not diagonals.
	center := 4 // middle of 3x3
	if got := tp.Degree(center); got != 4 {
		t.Errorf("center degree = %d, want 4", got)
	}
	corner := 0
	if got := tp.Degree(corner); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if !tp.Connected() {
		t.Error("3x3 lattice with radius 0.51 must be connected")
	}
}

func TestGridSingleRowAndCell(t *testing.T) {
	tp := Grid(1, 1, 0.2)
	if tp.N() != 1 || !tp.Connected() || tp.Degree(0) != 0 {
		t.Error("1x1 grid malformed")
	}
	row := Grid(5, 1, 0.26)
	if row.N() != 5 {
		t.Fatalf("N = %d", row.N())
	}
	if row.Degree(0) != 1 || row.Degree(2) != 2 {
		t.Errorf("row degrees wrong: %d, %d", row.Degree(0), row.Degree(2))
	}
}

func TestAvgDegreeScalesWithDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo := Uniform(50, 0.2, rng)
	hi := Uniform(400, 0.2, rng)
	if lo.AvgDegree() >= hi.AvgDegree() {
		t.Errorf("density should raise average degree: %v vs %v",
			lo.AvgDegree(), hi.AvgDegree())
	}
	// Sanity: expected degree ≈ (n-1)·π·r² with border losses; allow wide
	// tolerance but catch gross errors.
	exp := 399 * math.Pi * 0.04
	if hi.AvgDegree() > exp || hi.AvgDegree() < exp*0.5 {
		t.Errorf("avg degree %v implausible (unclipped expectation %v)", hi.AvgDegree(), exp)
	}
}

func TestConnected(t *testing.T) {
	disc := FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, 0.2)
	if disc.Connected() {
		t.Error("two distant nodes are not connected")
	}
	chain := FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(0.15, 0), geom.Pt(0.3, 0),
	}, 0.2)
	if !chain.Connected() {
		t.Error("three-node chain should be connected")
	}
	if !FromPoints(nil, 0.2).Connected() {
		t.Error("empty topology is trivially connected")
	}
}

func TestNeighborPositions(t *testing.T) {
	tp := FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0.2)}, 0.5)
	got := tp.NeighborPositions([]int{1, 0})
	if got[0] != geom.Pt(0.1, 0.2) || got[1] != geom.Pt(0, 0) {
		t.Errorf("NeighborPositions = %v", got)
	}
}

func TestUniformDeterministicWithSeed(t *testing.T) {
	a := Uniform(30, 0.2, rand.New(rand.NewSource(42)))
	b := Uniform(30, 0.2, rand.New(rand.NewSource(42)))
	for i := 0; i < a.N(); i++ {
		if a.Pos(i) != b.Pos(i) {
			t.Fatal("same seed must reproduce identical topology")
		}
	}
}

func TestRadiusValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive radius must panic")
		}
	}()
	FromPoints(nil, 0)
}

func BenchmarkUniform1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		Uniform(1000, 0.1, rng)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCoverAngleCoLocated(t *testing.T) {
	a, ok := CoverAngle(Pt(1, 1), Pt(1, 1), 0.2)
	if !ok || !a.IsFull() {
		t.Errorf("co-located cover angle = %v, %v; want full", a, ok)
	}
}

func TestCoverAngleOutOfRange(t *testing.T) {
	if _, ok := CoverAngle(Pt(0, 0), Pt(0.21, 0), 0.2); ok {
		t.Error("nodes farther than R apart must have empty cover angle")
	}
}

func TestCoverAngleAtExactRadius(t *testing.T) {
	// d = R: half-width = acos(1/2) = 60°, so the arc spans 120°.
	a, ok := CoverAngle(Pt(0, 0), Pt(0.2, 0), 0.2)
	if !ok {
		t.Fatal("neighbors at distance exactly R must have a cover angle")
	}
	if !almostEq(a.Measure(), 2*math.Pi/3, 1e-9) {
		t.Errorf("measure = %v, want 2π/3", a.Measure())
	}
	if !a.Contains(0) {
		t.Error("cover angle must be centred on the direction p→q")
	}
}

func TestCoverAngleHalfRadius(t *testing.T) {
	// d = R/2: half-width = acos(1/4) ≈ 75.52°.
	a, ok := CoverAngle(Pt(0, 0), Pt(0, 0.1), 0.2)
	if !ok {
		t.Fatal("expected a cover angle")
	}
	want := 2 * math.Acos(0.25)
	if !almostEq(a.Measure(), want, 1e-9) {
		t.Errorf("measure = %v, want %v", a.Measure(), want)
	}
	if !a.Contains(math.Pi / 2) {
		t.Error("cover angle should be centred on north")
	}
}

func TestCoverAngleWidensAsNodesApproach(t *testing.T) {
	prev := -1.0
	for d := 0.2; d >= 0.01; d -= 0.01 {
		a, ok := CoverAngle(Pt(0, 0), Pt(d, 0), 0.2)
		if !ok {
			t.Fatalf("d=%v should be in range", d)
		}
		if a.Measure() < prev {
			t.Fatalf("cover angle must widen monotonically as d shrinks (d=%v)", d)
		}
		prev = a.Measure()
	}
}

// The defining soundness property (paper, §5): the sector of A(p) spanned
// by the cover angle lies inside A(q). Verified by sampling.
func TestCoverAngleSectorInsideNeighborDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r = 0.2
	for trial := 0; trial < 200; trial++ {
		p := Pt(rng.Float64(), rng.Float64())
		th := rng.Float64() * 2 * math.Pi
		d := rng.Float64() * r
		q := Pt(p.X+d*math.Cos(th), p.Y+d*math.Sin(th))
		a, ok := CoverAngle(p, q, r)
		if !ok {
			t.Fatalf("trial %d: expected cover angle", trial)
		}
		for k := 0; k < 50; k++ {
			// Random point in the sector of A(p) spanned by a.
			phi := a.Lo + rng.Float64()*a.Measure()
			rho := rng.Float64() * r
			x := Pt(p.X+rho*math.Cos(phi), p.Y+rho*math.Sin(phi))
			if !q.InRange(x, r+1e-9) {
				t.Fatalf("trial %d: sector point %v outside A(q); p=%v q=%v arc=%v",
					trial, x, p, q, a)
			}
		}
	}
}

func TestDiskCoveredByCoLocatedNode(t *testing.T) {
	if !DiskCovered(Pt(0.3, 0.3), []Point{Pt(0.3, 0.3)}, 0.2) {
		t.Error("a co-located node covers the disk entirely")
	}
}

func TestDiskCoveredThreeSymmetric(t *testing.T) {
	// Three nodes at distance d from p, 120° apart. Each cover angle has
	// half-width acos(d/2r); full coverage requires acos(d/2r) ≥ 60°,
	// i.e. d ≤ r. At d slightly below r the three arcs just close.
	const r = 0.2
	p := Pt(0.5, 0.5)
	mk := func(d, rot float64) []Point {
		var out []Point
		for k := 0; k < 3; k++ {
			th := rot + 2*math.Pi*float64(k)/3
			out = append(out, Pt(p.X+d*math.Cos(th), p.Y+d*math.Sin(th)))
		}
		return out
	}
	if !DiskCovered(p, mk(0.9*r, 0), r) {
		t.Error("three neighbors at 0.9R, 120° apart should cover p")
	}
	if DiskCovered(p, mk(1.01*r, 0), r) {
		t.Error("nodes beyond R contribute nothing (Definition 2)")
	}
	// A hair inside r the arcs abut only up to acos/atan2 noise; every
	// rotation of the triangle must still close the circle.
	for k := 0; k < 24; k++ {
		if !DiskCovered(p, mk(r*(1-1e-15), 2*math.Pi*float64(k)/24), r) {
			t.Errorf("rotation %d/24: three neighbors a hair inside R should cover p", k)
		}
	}
}

func TestDiskCoveredTwoNodesNever(t *testing.T) {
	// Two distinct cover angles each measure < 2π·(150.52/360)·…; in fact
	// max half-width for d>0 is < 90°, so two non-co-located nodes can
	// cover at most < 360°.
	const r = 0.2
	p := Pt(0.5, 0.5)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var cover []Point
		for k := 0; k < 2; k++ {
			th := rng.Float64() * 2 * math.Pi
			d := 0.001 + rng.Float64()*(r-0.001)
			cover = append(cover, Pt(p.X+d*math.Cos(th), p.Y+d*math.Sin(th)))
		}
		if DiskCovered(p, cover, r) {
			t.Fatalf("two distinct neighbors cannot fully cover a disk: %v", cover)
		}
	}
}

// Soundness of Theorem 4 as implemented: whenever DiskCovered says yes,
// no sampled point of A(p) lies outside the union of the cover disks.
func TestDiskCoveredSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const r = 0.15
	covered := 0
	for trial := 0; trial < 400; trial++ {
		p := Pt(0.5, 0.5)
		n := 3 + rng.Intn(6)
		var cover []Point
		for k := 0; k < n; k++ {
			th := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * r
			cover = append(cover, Pt(p.X+d*math.Cos(th), p.Y+d*math.Sin(th)))
		}
		if !DiskCovered(p, cover, r) {
			continue
		}
		covered++
		for k := 0; k < 300; k++ {
			phi := rng.Float64() * 2 * math.Pi
			rho := math.Sqrt(rng.Float64()) * r
			x := Pt(p.X+rho*math.Cos(phi), p.Y+rho*math.Sin(phi))
			if !SamplePointCovered(x, cover, r+1e-9) {
				t.Fatalf("trial %d: DiskCovered=true but %v uncovered", trial, x)
			}
		}
	}
	if covered == 0 {
		t.Error("test never exercised the covered branch; adjust generator")
	}
}

func TestCoverageGaps(t *testing.T) {
	const r = 0.2
	p := Pt(0.5, 0.5)
	// One neighbor due east at distance R: covers [-60°, +60°].
	gaps := CoverageGaps(p, []Point{Pt(p.X+r, p.Y)}, r)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if !almostEq(gaps[0].Measure(), 2*math.Pi-2*math.Pi/3, 1e-9) {
		t.Errorf("gap measure = %v", gaps[0].Measure())
	}
	if len(CoverageGaps(p, []Point{p}, r)) != 0 {
		t.Error("co-located cover should leave no gaps")
	}
}

func TestIsCoverSetTrivial(t *testing.T) {
	pts := []Point{Pt(0.1, 0.1), Pt(0.12, 0.1), Pt(0.5, 0.5)}
	all := []int{0, 1, 2}
	if !IsCoverSet(pts, all, 0.2) {
		t.Error("the full set is always a cover set of itself")
	}
	if IsCoverSet(pts, []int{0, 1}, 0.2) {
		t.Error("distant node 2 cannot be covered by 0 and 1")
	}
	if IsCoverSet(pts, []int{0, 5}, 0.2) {
		t.Error("out-of-range index must be rejected")
	}
}

func TestIsCoverSetCoLocatedPair(t *testing.T) {
	pts := []Point{Pt(0.3, 0.3), Pt(0.3, 0.3)}
	if !IsCoverSet(pts, []int{0}, 0.2) {
		t.Error("one of two co-located nodes covers both")
	}
}

func TestUpdateRemovesAckedAndCovered(t *testing.T) {
	const r = 0.2
	// p0 acked; p1 co-located with p0 (covered); p2 far away (not covered).
	pts := []Point{Pt(0.3, 0.3), Pt(0.3, 0.3), Pt(0.7, 0.7)}
	ack := []Point{pts[0]}
	rem := Update(pts, ack, r)
	if len(rem) != 1 || rem[0] != 2 {
		t.Errorf("Update = %v, want [2]", rem)
	}
}

func TestUpdateEmptyAck(t *testing.T) {
	pts := []Point{Pt(0.3, 0.3), Pt(0.4, 0.4)}
	rem := Update(pts, nil, 0.2)
	if len(rem) != 2 {
		t.Errorf("with no ACKs every node remains: %v", rem)
	}
}

// Theorem 3 soundness as implemented: nodes removed by Update have their
// entire disk inside the union of the ACK disks (sampled).
func TestUpdateSound(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	const r = 0.2
	for trial := 0; trial < 100; trial++ {
		var pts []Point
		for k, n := 0, 4+rng.Intn(8); k < n; k++ {
			pts = append(pts, Pt(0.4+rng.Float64()*0.2, 0.4+rng.Float64()*0.2))
		}
		var ack []Point
		for _, p := range pts {
			if rng.Float64() < 0.5 {
				ack = append(ack, p)
			}
		}
		rem := Update(pts, ack, r)
		removed := make(map[int]bool)
		for _, i := range rem {
			removed[i] = true
		}
		for i, p := range pts {
			if removed[i] {
				continue
			}
			for k := 0; k < 100; k++ {
				phi := rng.Float64() * 2 * math.Pi
				rho := math.Sqrt(rng.Float64()) * r
				x := Pt(p.X+rho*math.Cos(phi), p.Y+rho*math.Sin(phi))
				if !SamplePointCovered(x, ack, r+1e-9) {
					t.Fatalf("trial %d: node %d removed but disk point %v uncovered", trial, i, x)
				}
			}
		}
	}
}

// TestBeyondCoverAgreesWithCoverAngle places pairs within a relative
// 1e-16 … 1e-7 of the range edge on either side, over radii and
// positions of several magnitudes: whenever BeyondCover rejects a pair,
// CoverAngle must reject it too, and a pair a relative 3e-9 beyond
// range must be rejected by the shortcut itself.
func TestBeyondCoverAgreesWithCoverAngle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rejected := 0
	for k := 0; k < 200_000; k++ {
		r := math.Pow(10, -3+4*rng.Float64())
		p := Pt((rng.Float64()-0.5)*100*r, (rng.Float64()-0.5)*100*r)
		delta := math.Pow(10, -16+9*rng.Float64())
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		th := rng.Float64() * 2 * math.Pi
		d := r * (1 + delta)
		q := Pt(p.X+d*math.Cos(th), p.Y+d*math.Sin(th))
		if BeyondCover(p, q, r) {
			rejected++
			if _, ok := CoverAngle(p, q, r); ok {
				t.Fatalf("BeyondCover(%v, %v, %v) but CoverAngle is ok (Hypot %v)", p, q, r, p.Dist(q))
			}
		}
		far := r * (1 + 3e-9)
		if q := Pt(p.X+far*math.Cos(th), p.Y+far*math.Sin(th)); !BeyondCover(p, q, r) {
			t.Fatalf("BeyondCover missed a pair %g beyond range", 3e-9)
		}
	}
	if rejected == 0 {
		t.Fatal("no pair rejected")
	}
}

// TestUpdateAllocsFlatInReceivers: Update shares one angle buffer and one
// merge scratch across its receivers, so its allocation count does not
// grow with |S|.
func TestUpdateAllocsFlatInReceivers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const r = 0.2
	random := func(n int) []Point {
		pts := make([]Point, n)
		for k := range pts {
			pts[k] = Pt(0.3+rng.Float64()*0.4, 0.3+rng.Float64()*0.4)
		}
		return pts
	}
	ack := random(6)
	allocs := func(pts []Point) float64 {
		return testing.AllocsPerRun(20, func() { Update(pts, ack, r) })
	}
	small, large := allocs(random(4)), allocs(random(200))
	if large != small {
		t.Errorf("Update allocates %v times on 4 receivers, %v on 200", small, large)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewArcNormalisation(t *testing.T) {
	a := NewArc(-math.Pi/2, math.Pi/2) // 270° to 90°, crossing east
	if !almostEq(a.Measure(), math.Pi, 1e-12) {
		t.Errorf("measure = %v, want π", a.Measure())
	}
	if !a.Contains(0) || !a.Contains(2*math.Pi-0.1) || !a.Contains(0.1) {
		t.Error("arc should contain directions near east")
	}
	if a.Contains(math.Pi) {
		t.Error("arc should not contain west")
	}
}

func TestArcContainsEndpoints(t *testing.T) {
	a := NewArc(1, 2)
	if !a.Contains(1) || !a.Contains(2) || !a.Contains(1.5) {
		t.Error("closed arc must contain endpoints and interior")
	}
	if a.Contains(0.99) || a.Contains(2.01) {
		t.Error("arc contains points outside itself")
	}
}

func TestFullArc(t *testing.T) {
	a := FullArc()
	if !a.IsFull() {
		t.Error("FullArc not full")
	}
	for _, th := range []float64{0, 1, math.Pi, 6.28} {
		if !a.Contains(th) {
			t.Errorf("FullArc should contain %v", th)
		}
	}
}

func TestCenteredArc(t *testing.T) {
	a := CenteredArc(0, math.Pi) // ±90° around east
	if !a.Contains(math.Pi/2) || !a.Contains(-math.Pi/2+2*math.Pi) {
		t.Error("centered arc missing its endpoints")
	}
	if a.Contains(math.Pi) {
		t.Error("centered arc contains opposite direction")
	}
	if !CenteredArc(1, 10).IsFull() {
		t.Error("width beyond 2π must clamp to a full circle")
	}
	if CenteredArc(1, -1).Measure() != 0 {
		t.Error("negative width must clamp to zero")
	}
}

// union merges arcs into the list CircleCovered decides from, and
// returns that decision with it.
func union(arcs ...Arc) (segs []Arc, full bool) {
	for _, a := range arcs {
		segs = mergeArc(segs, a)
	}
	full, _ = CircleCovered(arcs, nil)
	return segs, full
}

func TestArcSetEmpty(t *testing.T) {
	segs, full := union()
	if full {
		t.Error("empty set reported full")
	}
	if got := measureOf(segs); got != 0 {
		t.Errorf("measure = %v, want 0", got)
	}
	gaps := gapsOf(segs)
	if len(gaps) != 1 || !gaps[0].IsFull() {
		t.Errorf("gaps of empty set = %v, want one full arc", gaps)
	}
}

func TestArcSetUnionSimple(t *testing.T) {
	segs, full := union(NewArc(0, 1), NewArc(2, 3))
	if full {
		t.Error("two disjoint arcs reported full")
	}
	if got := measureOf(segs); !almostEq(got, 2, 1e-9) {
		t.Errorf("measure = %v, want 2", got)
	}
	if gaps := gapsOf(segs); len(gaps) != 2 {
		t.Fatalf("gaps = %v, want two", gaps)
	}
}

func TestArcSetMergeOverlap(t *testing.T) {
	segs, _ := union(NewArc(0, 2), NewArc(1, 3))
	if got := measureOf(segs); !almostEq(got, 3, 1e-9) || len(segs) != 1 {
		t.Errorf("segments %v (measure %v), want one of measure 3", segs, got)
	}
}

func TestArcSetWrapCoverage(t *testing.T) {
	_, full := union(
		NewArc(3*math.Pi/2, math.Pi/2), // wraps east
		NewArc(math.Pi/2-0.01, 3*math.Pi/2+0.01))
	if !full {
		t.Error("two half-circles with overlap should be full")
	}
}

func TestArcSetAlmostFullGap(t *testing.T) {
	segs, full := union(NewArc(0.001, 2*math.Pi-0.001))
	if full {
		t.Error("a 0.002 rad gap must not count as full")
	}
	gaps := gapsOf(segs)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if !almostEq(gaps[0].Measure(), 0.002, 1e-6) {
		t.Errorf("gap measure = %v", gaps[0].Measure())
	}
}

func TestArcSetThreeThirds(t *testing.T) {
	third := 2 * math.Pi / 3
	if _, full := union(NewArc(0, third), NewArc(third, 2*third)); full {
		t.Error("two thirds should not be full")
	}
	if _, full := union(NewArc(0, third), NewArc(third, 2*third), NewArc(2*third, 2*math.Pi)); !full {
		t.Error("three abutting thirds should be full")
	}
}

// TestArcSetNearAbutting pins the coverEps tolerance: unions whose ends
// or seams miss by float noise (1e-12, far below coverEps) are full,
// while a genuine 1e-6 gap is not. An exact float comparison in
// CircleCovered's single-segment test or in mergeArc's merge turns one
// of the full cases into a false coverage hole.
func TestArcSetNearAbutting(t *testing.T) {
	const noise = 1e-12
	cases := []struct {
		name string
		arcs []Arc
		full bool
	}{
		{"ends short of 2π", []Arc{NewArc(0, math.Pi), NewArc(math.Pi, FullCircle-noise)}, true},
		{"starts past 0", []Arc{NewArc(noise, math.Pi), NewArc(math.Pi, FullCircle)}, true},
		{"interior seam", []Arc{NewArc(0, math.Pi), NewArc(math.Pi+noise, FullCircle)}, true},
		{"wrapping seam", []Arc{NewArc(math.Pi/2, 3*math.Pi/2), NewArc(3*math.Pi/2+noise, math.Pi/2-noise)}, true},
		{"genuine gap", []Arc{NewArc(0, math.Pi), NewArc(math.Pi+1e-6, FullCircle)}, false},
	}
	for _, c := range cases {
		segs, full := union(c.arcs...)
		if full != c.full {
			t.Errorf("%s: CircleCovered = %v, want %v (segments %v)", c.name, full, c.full, segs)
		}
		if gaps := gapsOf(segs); (len(gaps) == 0) != c.full {
			t.Errorf("%s: gaps = %v, want none iff full", c.name, gaps)
		}
	}
}

// TestArcSetResetKeepsWorking checks that the scratch CircleCovered
// hands back is emptied on reuse, also after an early exit on a full
// arc.
func TestArcSetResetKeepsWorking(t *testing.T) {
	full, scratch := CircleCovered([]Arc{NewArc(0, 1), FullArc()}, nil)
	if !full {
		t.Fatal("a full arc did not cover the circle")
	}
	full, scratch = CircleCovered([]Arc{NewArc(0, 1)}, scratch)
	if full || !almostEq(measureOf(scratch), 1, 1e-9) {
		t.Errorf("reused scratch: full %v, segments %v; want one arc of measure 1", full, scratch)
	}
}

// Property: the measure of the merged list never exceeds 2π and equals
// the Monte-Carlo measure of the union within tolerance.
func TestArcSetCoveredMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		arcs := make([]Arc, 1+rng.Intn(6))
		for i := range arcs {
			lo := rng.Float64() * 2 * math.Pi
			w := rng.Float64() * math.Pi
			arcs[i] = CenteredArc(lo, w)
		}
		segs, _ := union(arcs...)
		covered := measureOf(segs)
		if covered < 0 || covered > 2*math.Pi+1e-9 {
			t.Fatalf("measure out of range: %v", covered)
		}
		const samples = 20000
		hits := 0
		for k := 0; k < samples; k++ {
			th := rng.Float64() * 2 * math.Pi
			for _, a := range arcs {
				if a.Contains(th) {
					hits++
					break
				}
			}
		}
		mc := 2 * math.Pi * float64(hits) / samples
		if math.Abs(mc-covered) > 0.12 {
			t.Fatalf("trial %d: measure=%v, Monte-Carlo=%v", trial, covered, mc)
		}
	}
}

// Property: merging arcs never decreases coverage (monotonicity).
func TestArcSetMonotone(t *testing.T) {
	f := func(seeds []float64) bool {
		var segs []Arc
		prev := 0.0
		for i := 0; i+1 < len(seeds); i += 2 {
			segs = mergeArc(segs, CenteredArc(seeds[i], math.Abs(math.Mod(seeds[i+1], math.Pi))))
			cov := measureOf(segs)
			if cov+1e-9 < prev {
				return false
			}
			prev = cov
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CoverageGaps complements the measure of a node's merged
// cover angles, and is empty exactly when DiskCovered holds.
func TestArcSetGapsComplementCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const r = 0.2
	for trial := 0; trial < 200; trial++ {
		p := Pt(0.5, 0.5)
		cover := clusterPoints(rng, rng.Intn(8), p, r*(0.3+rng.Float64()))
		segs, _ := union(CoverArcs(p, cover, r)...)
		gaps := CoverageGaps(p, cover, r)
		var gapSum float64
		for _, g := range gaps {
			gapSum += g.Measure()
		}
		if !almostEq(gapSum+measureOf(segs), 2*math.Pi, 1e-6) {
			t.Fatalf("gaps (%v) + covered (%v) != 2π", gapSum, measureOf(segs))
		}
		if (len(gaps) == 0) != DiskCovered(p, cover, r) {
			t.Fatalf("trial %d: gaps %v but DiskCovered %v", trial, gaps, DiskCovered(p, cover, r))
		}
	}
}

func TestArcString(t *testing.T) {
	got := NewArc(0, math.Pi).String()
	if got != "[0.0°, 180.0°]" {
		t.Errorf("String = %q", got)
	}
}

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

func TestArcSetEmpty(t *testing.T) {
	var s ArcSet
	if s.IsFull() {
		t.Error("empty set reported full")
	}
	if s.Covered() != 0 {
		t.Errorf("Covered = %v, want 0", s.Covered())
	}
	gaps := s.Gaps()
	if len(gaps) != 1 || !gaps[0].IsFull() {
		t.Errorf("Gaps of empty set = %v, want one full arc", gaps)
	}
}

func TestArcSetUnionSimple(t *testing.T) {
	var s ArcSet
	s.Add(NewArc(0, 1))
	s.Add(NewArc(2, 3))
	if s.IsFull() {
		t.Error("two disjoint arcs reported full")
	}
	if got := s.Covered(); !almostEq(got, 2, 1e-9) {
		t.Errorf("Covered = %v, want 2", got)
	}
	gaps := s.Gaps()
	if len(gaps) != 2 {
		t.Fatalf("gaps = %v, want two", gaps)
	}
}

func TestArcSetMergeOverlap(t *testing.T) {
	var s ArcSet
	s.Add(NewArc(0, 2))
	s.Add(NewArc(1, 3))
	if got := s.Covered(); !almostEq(got, 3, 1e-9) {
		t.Errorf("Covered = %v, want 3", got)
	}
}

func TestArcSetWrapCoverage(t *testing.T) {
	var s ArcSet
	s.Add(NewArc(3*math.Pi/2, math.Pi/2)) // wraps east
	s.Add(NewArc(math.Pi/2-0.01, 3*math.Pi/2+0.01))
	if !s.IsFull() {
		t.Error("two half-circles with overlap should be full")
	}
}

func TestArcSetAlmostFullGap(t *testing.T) {
	var s ArcSet
	s.Add(NewArc(0.001, 2*math.Pi-0.001))
	if s.IsFull() {
		t.Error("a 0.002 rad gap must not count as full")
	}
	gaps := s.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if !almostEq(gaps[0].Measure(), 0.002, 1e-6) {
		t.Errorf("gap measure = %v", gaps[0].Measure())
	}
}

func TestArcSetThreeThirds(t *testing.T) {
	third := 2 * math.Pi / 3
	var s ArcSet
	s.Add(NewArc(0, third))
	s.Add(NewArc(third, 2*third))
	if s.IsFull() {
		t.Error("two thirds should not be full")
	}
	s.Add(NewArc(2*third, 2*math.Pi))
	if !s.IsFull() {
		t.Error("three abutting thirds should be full")
	}
}

// TestArcSetNearAbutting pins the coverEps tolerance: unions whose ends
// or seams miss by float noise (1e-12, far below coverEps) are full,
// while a genuine 1e-6 gap is not. An exact float comparison in IsFull's
// single-segment test or in the segment merge turns one of the full
// cases into a false coverage hole.
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
		var s ArcSet
		s.AddAll(c.arcs)
		if got := s.IsFull(); got != c.full {
			t.Errorf("%s: IsFull = %v, want %v (segments %v)", c.name, got, c.full, s.segments())
		}
		if gaps := s.Gaps(); (len(gaps) == 0) != c.full {
			t.Errorf("%s: Gaps = %v, want none iff full", c.name, gaps)
		}
	}
}

func TestArcSetResetKeepsWorking(t *testing.T) {
	var s ArcSet
	s.Add(FullArc())
	s.Reset()
	if s.Covered() != 0 || s.Len() != 0 {
		t.Error("Reset did not clear the set")
	}
	s.Add(NewArc(0, 1))
	if !almostEq(s.Covered(), 1, 1e-9) {
		t.Error("set unusable after Reset")
	}
}

// Property: Covered() never exceeds 2π and equals the Monte-Carlo measure
// of the union within tolerance.
func TestArcSetCoveredMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var s ArcSet
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			lo := rng.Float64() * 2 * math.Pi
			w := rng.Float64() * math.Pi
			s.Add(CenteredArc(lo, w))
		}
		covered := s.Covered()
		if covered < 0 || covered > 2*math.Pi+1e-9 {
			t.Fatalf("Covered out of range: %v", covered)
		}
		const samples = 20000
		hits := 0
		for k := 0; k < samples; k++ {
			th := rng.Float64() * 2 * math.Pi
			in := false
			for _, a := range s.arcs {
				if a.Contains(th) {
					in = true
					break
				}
			}
			if in {
				hits++
			}
		}
		mc := 2 * math.Pi * float64(hits) / samples
		if math.Abs(mc-covered) > 0.12 {
			t.Fatalf("trial %d: Covered=%v, Monte-Carlo=%v", trial, covered, mc)
		}
	}
}

// Property: adding arcs never decreases coverage (monotonicity).
func TestArcSetMonotone(t *testing.T) {
	f := func(seeds []float64) bool {
		var s ArcSet
		prev := 0.0
		for i := 0; i+1 < len(seeds); i += 2 {
			s.Add(CenteredArc(seeds[i], math.Abs(math.Mod(seeds[i+1], math.Pi))))
			cov := s.Covered()
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

// Property: Gaps() and Covered() are complementary.
func TestArcSetGapsComplementCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var s ArcSet
		for i, n := 0, rng.Intn(8); i < n; i++ {
			s.Add(CenteredArc(rng.Float64()*2*math.Pi, rng.Float64()*2))
		}
		var gapSum float64
		for _, g := range s.Gaps() {
			gapSum += g.Measure()
		}
		if !almostEq(gapSum+s.Covered(), 2*math.Pi, 1e-6) {
			t.Fatalf("gaps (%v) + covered (%v) != 2π", gapSum, s.Covered())
		}
	}
}

func TestArcString(t *testing.T) {
	got := NewArc(0, math.Pi).String()
	if got != "[0.0°, 180.0°]" {
		t.Errorf("String = %q", got)
	}
}

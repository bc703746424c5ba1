package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0.25, 0.75), Pt(0.25, 0.75), 0},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want, 1e-12) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

// sane maps an arbitrary quick-generated float into [0, 1), keeping the
// property tests within the coordinate range the library targets.
func sane(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(v, 1))
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(sane(ax), sane(ay)), Pt(sane(bx), sane(by))
		return almostEq(a.Dist(b), b.Dist(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleQuadrants(t *testing.T) {
	p := Pt(0, 0)
	cases := []struct {
		q    Point
		want float64
	}{
		{Pt(1, 0), 0},
		{Pt(0, 1), math.Pi / 2},
		{Pt(-1, 0), math.Pi},
		{Pt(0, -1), 3 * math.Pi / 2},
		{Pt(1, 1), math.Pi / 4},
		{Pt(-1, -1), 5 * math.Pi / 4},
	}
	for _, c := range cases {
		if got := p.Angle(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Angle(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAngleRange(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(sane(ax), sane(ay)).Angle(Pt(sane(bx), sane(by)))
		return a >= 0 && a < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRange(t *testing.T) {
	p := Pt(0.5, 0.5)
	if !p.InRange(Pt(0.5, 0.7), 0.2) {
		t.Error("boundary distance should count as in range")
	}
	if p.InRange(Pt(0.5, 0.71), 0.2) {
		t.Error("0.21 away should be out of range 0.2")
	}
	if !p.InRange(p, 0) {
		t.Error("a point is in range of itself even at radius 0")
	}
}

func TestVectorOps(t *testing.T) {
	a, b := Pt(1, 2), Pt(3, -4)
	if got := a.Add(b); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

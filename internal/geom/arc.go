package geom

import (
	"fmt"
	"math"
)

// FullCircle is the total angular measure of a circle, 2π radians.
const FullCircle = 2 * math.Pi

// coverEps is the angular slack used when deciding whether a union of arcs
// covers the full circle. Floating-point evaluation of acos/atan2 leaves
// gaps on the order of 1e-15 between abutting arcs; anything below
// coverEps is treated as numerical noise, not a genuine coverage hole.
const coverEps = 1e-9

// Arc is a closed angular interval [Lo, Hi] on a circle, in radians.
// Lo is always normalised into [0, 2π); Hi may exceed 2π when the arc
// wraps past the reference direction (Hi - Lo is the arc's measure and is
// at most 2π). The degenerate full-circle arc is [0, 2π].
type Arc struct {
	Lo, Hi float64
}

// NewArc builds an arc from lo counter-clockwise to hi. The inputs may be
// any real numbers; the arc spans from lo CCW to hi, so NewArc(3π/2, π/2)
// is the 180° arc crossing the reference direction. If hi == lo the arc is
// a single point; callers wanting a full circle should use FullArc.
func NewArc(lo, hi float64) Arc {
	lo = normAngle(lo)
	hi = normAngle(hi)
	if hi < lo {
		hi += FullCircle
	}
	return Arc{Lo: lo, Hi: hi}
}

// FullArc returns the arc covering the entire circle.
func FullArc() Arc { return Arc{Lo: 0, Hi: FullCircle} }

// CenteredArc returns the arc of the given angular width centred on the
// direction mid. Width is clamped to [0, 2π].
func CenteredArc(mid, width float64) Arc {
	if width < 0 {
		width = 0
	}
	if width >= FullCircle {
		return FullArc()
	}
	return NewArc(mid-width/2, mid+width/2)
}

// Measure returns the angular length of the arc in radians.
func (a Arc) Measure() float64 { return a.Hi - a.Lo }

// IsFull reports whether the arc covers the entire circle (up to coverEps).
func (a Arc) IsFull() bool { return a.Measure() >= FullCircle-coverEps }

// Contains reports whether the direction θ lies on the arc.
func (a Arc) Contains(theta float64) bool {
	t := normAngle(theta)
	if t >= a.Lo && t <= a.Hi {
		return true
	}
	// The arc may extend past 2π; test the wrapped image as well.
	return t+FullCircle <= a.Hi
}

// String renders the arc in degrees for debugging, e.g. "[30.0°, 150.0°]".
func (a Arc) String() string {
	return fmt.Sprintf("[%.1f°, %.1f°]", a.Lo*180/math.Pi, a.Hi*180/math.Pi)
}

// normAngle maps any angle onto [0, 2π).
func normAngle(a float64) float64 {
	a = math.Mod(a, FullCircle)
	if a < 0 {
		a += FullCircle
	}
	return a
}

// splitArc appends a (possibly wrapping) arc to buf as non-wrapping
// segments.
func splitArc(buf []Arc, a Arc) []Arc {
	if a.Hi > FullCircle {
		return append(buf, Arc{Lo: a.Lo, Hi: FullCircle}, Arc{Lo: 0, Hi: a.Hi - FullCircle})
	}
	return append(buf, a)
}

// mergeArc inserts a (possibly wrapping) arc into a merged, sorted list
// of non-wrapping segments, keeping the list merged and sorted. It is
// the one place the float coverage rule forgives a gap: segments less
// than coverEps apart are merged, while the seam at 0/2π is never
// crossed, so it counts as two gaps.
func mergeArc(segs []Arc, a Arc) []Arc {
	segs = splitArc(segs, a)
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].Lo < segs[j-1].Lo; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	w := 0
	for i := 1; i < len(segs); i++ {
		if segs[i].Lo <= segs[w].Hi+coverEps {
			if segs[i].Hi > segs[w].Hi {
				segs[w].Hi = segs[i].Hi
			}
		} else {
			w++
			segs[w] = segs[i]
		}
	}
	return segs[:w+1]
}

// measureOf sums the measures of merged, sorted segments.
func measureOf(segs []Arc) float64 {
	var total float64
	for _, s := range segs {
		total += s.Hi - s.Lo
	}
	if total > FullCircle {
		total = FullCircle
	}
	return total
}

// CircleCovered reports whether the union of arcs is the full circle,
// the paper's condition "∪ᵢ[αᵢ, βᵢ] = [0, 360]" of Theorem 4: their
// merged list is one segment from 0 to 2π, up to coverEps at each end.
// The segments are merged in scratch, which is returned for reuse, so a
// caller that keeps it allocates nothing per call.
func CircleCovered(arcs, scratch []Arc) (bool, []Arc) {
	segs := scratch[:0]
	for _, a := range arcs {
		if a.IsFull() {
			return true, segs
		}
		segs = mergeArc(segs, a)
	}
	return len(segs) == 1 && segs[0].Lo <= coverEps && segs[0].Hi >= FullCircle-coverEps, segs
}

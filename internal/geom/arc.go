package geom

import (
	"fmt"
	"math"
	"sort"
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

// ArcSet accumulates a union of arcs on a single circle and answers
// coverage queries. The zero value is an empty set ready to use.
//
// ArcSet is the engine behind Theorem 4 of the paper: the transmission
// area of a node p is completely covered by a set of nodes C if the union
// of p's cover angles for the members of C is the full circle.
type ArcSet struct {
	arcs []Arc
}

// Add inserts an arc into the set.
func (s *ArcSet) Add(a Arc) {
	if a.Measure() <= 0 {
		return
	}
	s.arcs = append(s.arcs, a)
}

// AddAll inserts every arc in the slice.
func (s *ArcSet) AddAll(arcs []Arc) {
	for _, a := range arcs {
		s.Add(a)
	}
}

// Len returns the number of arcs added (before merging).
func (s *ArcSet) Len() int { return len(s.arcs) }

// Reset empties the set, retaining capacity.
func (s *ArcSet) Reset() { s.arcs = s.arcs[:0] }

// segments returns the union normalised to disjoint, sorted, non-wrapping
// intervals within [0, 2π]. Wrapping arcs are split at 2π.
func (s *ArcSet) segments() []Arc {
	if len(s.arcs) == 0 {
		return nil
	}
	split := make([]Arc, 0, len(s.arcs)+4)
	for _, a := range s.arcs {
		if a.IsFull() {
			return []Arc{{Lo: 0, Hi: FullCircle}}
		}
		if a.Hi > FullCircle {
			split = append(split, Arc{Lo: a.Lo, Hi: FullCircle}, Arc{Lo: 0, Hi: a.Hi - FullCircle})
		} else {
			split = append(split, a)
		}
	}
	sort.Slice(split, func(i, j int) bool { return split[i].Lo < split[j].Lo })
	merged := split[:1]
	for _, a := range split[1:] {
		last := &merged[len(merged)-1]
		if a.Lo <= last.Hi+coverEps {
			if a.Hi > last.Hi {
				last.Hi = a.Hi
			}
		} else {
			merged = append(merged, a)
		}
	}
	return merged
}

// Covered returns the total angular measure of the union, in radians.
func (s *ArcSet) Covered() float64 {
	var sum float64
	for _, seg := range s.segments() {
		sum += seg.Measure()
	}
	if sum > FullCircle {
		sum = FullCircle
	}
	return sum
}

// Uncovered returns the total angular measure NOT covered by the union.
func (s *ArcSet) Uncovered() float64 { return FullCircle - s.Covered() }

// IsFull reports whether the union covers the entire circle, i.e. the
// paper's condition "∪ᵢ[αᵢ, βᵢ] = [0, 360]".
func (s *ArcSet) IsFull() bool {
	segs := s.segments()
	if len(segs) == 0 {
		return false
	}
	if len(segs) == 1 {
		return segs[0].Lo <= coverEps && segs[0].Hi >= FullCircle-coverEps
	}
	// More than one disjoint segment means at least one gap.
	return false
}

// Gaps returns the maximal uncovered arcs, normalised to [0, 2π). An empty
// result means the circle is fully covered.
func (s *ArcSet) Gaps() []Arc {
	segs := s.segments()
	if len(segs) == 0 {
		return []Arc{FullArc()}
	}
	var gaps []Arc
	// Gap before the first segment, wrapping from the last one.
	if segs[0].Lo > coverEps || segs[len(segs)-1].Hi < FullCircle-coverEps {
		lo := segs[len(segs)-1].Hi
		hi := segs[0].Lo + FullCircle
		if hi-lo > coverEps {
			gaps = append(gaps, Arc{Lo: normAngle(lo), Hi: normAngle(lo) + (hi - lo)})
		}
	}
	for i := 1; i < len(segs); i++ {
		lo, hi := segs[i-1].Hi, segs[i].Lo
		if hi-lo > coverEps {
			gaps = append(gaps, Arc{Lo: lo, Hi: hi})
		}
	}
	return gaps
}

package geom

import "math"

// CoverAngle computes the cover angle of p for q (Definition 2 of the
// paper): the angular sector of A(p), as seen from p, that is guaranteed
// to lie inside A(q), assuming both disks have radius r.
//
// Following the paper:
//   - if p and q are co-located the cover angle is the full circle;
//   - if q is farther than r from p (p and q are not neighbors) the cover
//     angle is empty and ok is false;
//   - otherwise the cover angle is the arc centred on the direction p→q
//     with half-width acos(d / 2r), where d = |pq|: the two ends are the
//     directions from p to the intersection points of the two disk
//     boundaries.
//
// The sector of A(p) spanned by the returned arc is entirely contained in
// A(p) ∩ A(q); this containment is what makes the angle-based coverage
// test of Theorem 4 sound.
func CoverAngle(p, q Point, r float64) (Arc, bool) {
	d := p.Dist(q)
	if d > r {
		return Arc{}, false
	}
	if d < coverEps {
		// Co-located up to numerical noise: below the same slack mergeArc
		// forgives, acos(d/2r) ≈ π/2 carries no angular information anyway.
		return FullArc(), true
	}
	half := math.Acos(d / (2 * r))
	return CenteredArc(p.Angle(q), 2*half), true
}

// BeyondCover reports, from the squared distance alone, that
// CoverAngle(p, q, r) is certainly not ok: Dist2 exceeds r² by a
// relative rangeSlack. Dist2 errs by at most three roundings (relative
// 2⁻⁵²) and Hypot, r·r and the product by a few more, so any pair it
// rejects has Hypot(p−q) > r by a margin of ~5e-10 relative, far above
// them all. Pairs within the slack are left to CoverAngle.
func BeyondCover(p, q Point, r float64) bool {
	return p.Dist2(q) > r*r*(1+rangeSlack)
}

// rangeSlack is BeyondCover's relative margin on r².
const rangeSlack = 1e-9

// CoverArcs returns the cover angles of p for each member of cover that is
// within radius r of p. The sector union of the result is contained in
// the union of the members' disks.
func CoverArcs(p Point, cover []Point, r float64) []Arc {
	arcs := make([]Arc, 0, len(cover))
	for _, q := range cover {
		if a, ok := CoverAngle(p, q, r); ok {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// DiskCovered reports whether the transmission area A(p) is completely
// covered by the transmission areas of the nodes in cover, using the
// angle-based scheme of Theorem 4: A(p) ⊆ A(cover) if the union of p's
// cover angles for the members of cover is the full circle.
//
// For stations of equal radius the criterion is exact with respect to the
// disks of members within distance r of p (members farther away contribute
// nothing, per Definition 2, even though their disks may overlap A(p);
// the paper's scheme is deliberately conservative there).
func DiskCovered(p Point, cover []Point, r float64) bool {
	s := newCoverScratch(len(cover))
	return s.diskCovered(p, cover, r)
}

// coverScratch holds DiskCovered's two buffers, p's cover angles and
// their merged list, so that a loop over many disks allocates them once.
type coverScratch struct{ arcs, segs []Arc }

// newCoverScratch sizes the buffers for covers of up to n members: one
// angle per member, and n+2 segments. The merged list of k arcs holds at
// most k+1 segments, as the pieces of wrapping arcs merge at the seam,
// and mergeArc appends up to two pieces before it merges them.
func newCoverScratch(n int) coverScratch {
	return coverScratch{arcs: make([]Arc, 0, n), segs: make([]Arc, 0, n+2)}
}

// diskCovered is DiskCovered on the scratch buffers.
func (s *coverScratch) diskCovered(p Point, cover []Point, r float64) bool {
	s.arcs = s.arcs[:0]
	for _, q := range cover {
		if a, ok := CoverAngle(p, q, r); ok {
			if a.IsFull() {
				return true
			}
			s.arcs = append(s.arcs, a)
		}
	}
	var covered bool
	covered, s.segs = CircleCovered(s.arcs, s.segs)
	return covered
}

// CoverageGaps returns the angular gaps of A(p) left uncovered by the
// members of cover (empty when DiskCovered would return true). Useful for
// diagnostics and for greedy cover-set construction.
func CoverageGaps(p Point, cover []Point, r float64) []Arc {
	var segs []Arc
	for _, a := range CoverArcs(p, cover, r) {
		segs = mergeArc(segs, a)
	}
	return gapsOf(segs)
}

// gapsOf returns the complement of a merged list: the gap across the
// 0/2π seam first, normalised to start in [0, 2π), then the gaps between
// segments. Gaps within coverEps (after merging, only the seam's) are
// dropped, so the result is empty exactly when CircleCovered holds.
func gapsOf(segs []Arc) []Arc {
	if len(segs) == 0 {
		return []Arc{FullArc()}
	}
	var gaps []Arc
	first, last := segs[0], segs[len(segs)-1]
	if first.Lo > coverEps || last.Hi < FullCircle-coverEps {
		lo, hi := last.Hi, first.Lo+FullCircle
		if hi-lo > coverEps {
			gaps = append(gaps, Arc{Lo: normAngle(lo), Hi: normAngle(lo) + (hi - lo)})
		}
	}
	for k := 1; k < len(segs); k++ {
		if lo, hi := segs[k-1].Hi, segs[k].Lo; hi-lo > coverEps {
			gaps = append(gaps, Arc{Lo: lo, Hi: hi})
		}
	}
	return gaps
}

// IsCoverSet reports whether sub (given as indices into pts) is a cover
// set of the full set pts (Definition 1): A(sub) = A(pts). Because
// A(pts) = A(sub) ∪ ⋃_{p∉sub} A(p), the condition reduces to requiring
// that the disk of every excluded node is covered by the selected nodes'
// disks, which is decided with the angle-based criterion.
func IsCoverSet(pts []Point, sub []int, r float64) bool {
	selected := make([]bool, len(pts))
	cover := make([]Point, 0, len(sub))
	for _, i := range sub {
		if i < 0 || i >= len(pts) {
			return false
		}
		if !selected[i] {
			selected[i] = true
			cover = append(cover, pts[i])
		}
	}
	s := newCoverScratch(len(cover))
	for i, p := range pts {
		if selected[i] {
			continue
		}
		if !s.diskCovered(p, cover, r) {
			return false
		}
	}
	return true
}

// Update implements the paper's UPDATE(S, S_ACK) procedure: it returns the
// indices of the nodes in pts (the remaining intended receiver set S)
// whose transmission areas are NOT completely covered by the disks of the
// acknowledged nodes ack. Nodes that are covered — including the members
// of ack themselves — are guaranteed by Theorem 3 to have received the
// data frame without collision and need no further service.
func Update(pts []Point, ack []Point, r float64) []int {
	remaining := make([]int, 0, len(pts))
	s := newCoverScratch(len(ack))
	for i, p := range pts {
		if !s.diskCovered(p, ack, r) {
			remaining = append(remaining, i)
		}
	}
	return remaining
}

// SamplePointCovered is a Monte-Carlo oracle used in tests: it reports
// whether the point x lies in the union of the disks of radius r around
// the given centers.
func SamplePointCovered(x Point, centers []Point, r float64) bool {
	for _, c := range centers {
		if c.InRange(x, r) {
			return true
		}
	}
	return false
}

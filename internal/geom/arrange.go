package geom

import (
	"math"
	"math/bits"
	"slices"
)

// A node's arc arrangement cuts its circle at 0, at 2π and at the
// endpoints of a list of arcs (a wrapping arc at the end of each of its
// two split segments). Every arc of the list is then a union of the
// elementary arcs between consecutive cut points, so it is a bitmask,
// and "the arcs in M cover the circle" becomes "every elementary arc
// meets M": the Theorem 4 test on words instead of a sort and a sweep.
//
// The float test (CircleCovered, through mergeArc) forgives every gap
// no longer than coverEps, the seam at 0/2π counting as two gaps. Its
// gaps run between cut points, so the two tests can differ only on an
// uncovered run made of elementary arcs no longer than tinyArc: a bitset
// decision is taken when nothing is uncovered (covered) or when some
// uncovered elementary arc is longer than tinyArc (not covered, since
// that gap is longer than coverEps by far more than the rounding of
// Hi+coverEps). Otherwise the caller falls back to the float sweep.
const tinyArc = 2 * coverEps

// arrangeable reports whether an arrangement can represent a: the full
// arc, or a proper arc — Lo in [0, 2π) and a positive measure short of
// IsFull, so that both split segments lie in [0, 2π]. Anything else
// (NaN included) sends its node to the float sweep.
func arrangeable(a Arc) bool {
	m := a.Hi - a.Lo
	return a == FullArc() || (a.Lo >= 0 && a.Lo < FullCircle && m > 0 && m < FullCircle-coverEps)
}

// cutter sorts the cut points of one circle's arcs. Each endpoint is
// sorted as a key holding its float's bits with the lowest tagBits
// replaced by a tag naming the arc and the endpoint: for non-negative
// floats the bits sort as the values do, so one integer sort orders the
// cuts and tells each arc where its endpoints fell, with no search.
// Values equal in all but their lowest tagBits bits may come out of
// order; arrange reports that, and the caller sweeps that circle in
// floats (such cuts are within 2⁻³⁴ rad, so within tinyArc anyway).
type cutter struct {
	keys  []uint64
	cuts  []float64  // the sorted distinct cut points, 0 first and 2π last
	spans [][3]int32 // spans[k]: cut indices of arc k's Lo, Hi and Hi−2π
}

const (
	tagBits = 16
	tagMask = 1<<tagBits - 1
	maxArcs = 1 << (tagBits - 2) // arcs a cutter can tag
)

// Endpoint kinds in a tag's low two bits.
const (
	cutLo   = 0 // a.Lo
	cutHi   = 1 // a.Hi of an arc that does not wrap
	cutWrap = 2 // a.Hi − 2π of an arc that wraps, as splitArc computes it
)

// reset empties the cutter for an arc list of n arcs.
func (c *cutter) reset(n int) {
	c.keys = c.keys[:0]
	if len(c.spans) < n {
		c.spans = make([][3]int32, n)
	}
}

// add queues the endpoints of arcs[k], a proper arc (arrangeable and not
// the full arc).
func (c *cutter) add(k int, a Arc) {
	tag := uint64(k) << 2
	end, kind := a.Hi, uint64(cutHi)
	if a.Hi > FullCircle {
		end, kind = a.Hi-FullCircle, cutWrap
	}
	c.keys = append(c.keys,
		math.Float64bits(a.Lo)&^tagMask|tag|cutLo,
		math.Float64bits(end)&^tagMask|tag|kind)
}

// arrange sorts the queued endpoints of arcs into cuts and spans. It
// reports false when the tagged sort misordered two values.
func (c *cutter) arrange(arcs []Arc) bool {
	slices.Sort(c.keys)
	cuts := append(c.cuts[:0], 0)
	for _, key := range c.keys {
		k, kind := int(key&tagMask)>>2, key&3
		a := arcs[k]
		v := a.Lo
		switch kind {
		case cutHi:
			v = a.Hi
		case cutWrap:
			v = a.Hi - FullCircle
		}
		last := cuts[len(cuts)-1]
		if v < last {
			c.cuts = cuts
			return false
		}
		if v > last {
			cuts = append(cuts, v)
		}
		c.spans[k][kind] = int32(len(cuts) - 1)
	}
	if cuts[len(cuts)-1] < FullCircle {
		cuts = append(cuts, FullCircle)
	}
	c.cuts = cuts
	return true
}

// setArc sets in m the elementary arcs that arc a, queued as k, covers.
func (c *cutter) setArc(m []uint64, k int, a Arc) {
	sp := c.spans[k]
	if a.Hi > FullCircle {
		setSpan(m, int(sp[cutLo]), len(c.cuts)-1)
		setSpan(m, 0, int(sp[cutWrap]))
	} else {
		setSpan(m, int(sp[cutLo]), int(sp[cutHi]))
	}
}

// setTiny sets in m the elementary arcs no longer than tinyArc.
func (c *cutter) setTiny(m []uint64) {
	for e := 0; e+1 < len(c.cuts); e++ {
		if c.cuts[e+1]-c.cuts[e] <= tinyArc {
			m[e/64] |= 1 << uint(e%64)
		}
	}
}

// span is the bitmask of elementary arcs [lo, hi), 0 ≤ lo ≤ hi ≤ 64.
func span(lo, hi int) uint64 {
	return (1<<uint(hi) - 1) &^ (1<<uint(lo) - 1)
}

// Arrangement is the arc arrangement of one circle under a fixed list of
// arcs, for repeated coverage questions over subsets of the list: UPDATE
// asks, for each remaining receiver, whether the ACKers' cover angles
// cover its circle. Masks take as many words as the elementary arcs
// need. The zero value decides nothing; CoverTable.Arrange builds one,
// reusing its buffers.
type Arrangement struct {
	words int
	exact bool     // every used arc is arrangeable
	masks []uint64 // masks[k*words:(k+1)*words]: elementary arcs of arc k
	all   []uint64 // every elementary arc (after masks, one buffer)
	tiny  []uint64 // elementary arcs no longer than tinyArc (after all)
}

// Arrange builds r over arcs, cutting the circle at the arcs whose use
// flag is set; the others get empty masks. It sorts in the table's
// scratch, so a caller holding a table for its searches keeps no sort
// buffers per arrangement; the table must not be mid-search.
func (t *CoverTable) Arrange(r *Arrangement, arcs []Arc, use []bool) {
	c := &t.cut
	c.reset(len(arcs))
	r.exact = len(arcs) <= maxArcs
	for k, a := range arcs {
		switch {
		case !use[k] || a == FullArc():
		case arrangeable(a):
			c.add(k, a)
		default:
			r.exact = false
		}
	}
	r.exact = r.exact && c.arrange(arcs)
	elems := len(c.cuts) - 1
	w := (elems + 63) / 64
	r.words = w
	buf := slices.Grow(r.masks[:0], (len(arcs)+2)*w)[:(len(arcs)+2)*w]
	clear(buf)
	r.masks = buf[:len(arcs)*w]
	r.all = setSpan(buf[len(arcs)*w:(len(arcs)+1)*w], 0, elems)
	r.tiny = buf[(len(arcs)+1)*w:]
	if !r.exact {
		return
	}
	c.setTiny(r.tiny)
	for k, a := range arcs {
		if !use[k] {
			continue
		}
		if m := r.masks[k*w : (k+1)*w]; a == FullArc() {
			copy(m, r.all)
		} else {
			c.setArc(m, k, a)
		}
	}
}

// setSpan sets bits [lo, hi) of the multiword mask m and returns it.
func setSpan(m []uint64, lo, hi int) []uint64 {
	for lo < hi {
		word, bit := lo/64, lo%64
		top := min(hi-word*64, 64)
		m[word] |= span(bit, top)
		lo = word*64 + top
	}
	return m
}

// Words returns the mask length, the length Covered expects of acc.
func (r *Arrangement) Words() int { return r.words }

// Or adds arc k's elementary arcs to acc.
func (r *Arrangement) Or(acc []uint64, k int) {
	for w, m := range r.masks[k*r.words : (k+1)*r.words] {
		acc[w] |= m
	}
}

// Covered decides, for acc the union of some arcs' masks, whether those
// arcs cover the circle as CircleCovered decides it. sure is false when
// the bitsets cannot tell (see tinyArc) or some used arc was not
// arrangeable; the caller then runs the float sweep.
func (r *Arrangement) Covered(acc []uint64) (covered, sure bool) {
	if !r.exact {
		return false, false
	}
	var open, wide uint64
	for w, all := range r.all {
		u := all &^ acc[w]
		open |= u
		wide |= u &^ r.tiny[w]
	}
	if open == 0 {
		return true, true
	}
	return false, wide != 0
}

// qScale is the fixed-point unit of arrangement measures: a cut point c
// is held as int64(c·2⁵⁰). The measure of a set of elementary arcs is
// then a sum of whole-run differences q(end)−q(start), exact in integers
// and within one unit (2⁻⁵⁰ rad) of the real measure per run.
const qScale = 1 << 50

// greedyMargin is how far apart, in qScale units, two greedy scores must
// be for the bitset argmax to stand for the float one. A fixed-point
// score sums at most 65 nodes' measures of at most 33 runs each, so it is
// within 2 200 units (~2e-12 rad) of the real score. The float score
// (coveredWith, measureOf and the score sum, ≤ 64 terms each below 2⁹)
// is within ~3e-11 rad of it. 1e-9 rad clears both by a wide factor;
// candidates closer than that to the best have their float scores
// re-derived exactly (CoverTable.tieBreak).
const greedyMargin = qScale / 1_000_000_000

// measure is the fixed-point measure of node i's elementary arcs m.
func (t *CoverTable) measure(i int, m uint64) int64 {
	q := t.qcut[t.off[i]:]
	var s int64
	for m != 0 {
		next := m + m&-m // clears the lowest run, sets the bit above it
		s += q[bits.TrailingZeros64(next)] - q[bits.TrailingZeros64(m)]
		m &= next
	}
	return s
}

// segmentsOf appends node i's elementary arcs m as segments, one per
// maximal run, in order: the merged list mergeArc builds from the arcs
// that cover them, as long as no gap between them is within coverEps.
func (t *CoverTable) segmentsOf(buf []Arc, i int, m uint64) []Arc {
	c := t.cuts[t.off[i]:]
	for m != 0 {
		next := m + m&-m
		buf = append(buf, Arc{Lo: c[bits.TrailingZeros64(m)], Hi: c[bits.TrailingZeros64(next)]})
		m &= next
	}
	return buf
}

// arrange builds every node's arrangement from the table, once per fill.
// A node with an arc it cannot represent or more than 64 elementary arcs
// gets none (all[i] == 0) and has its coverage tests swept in floats;
// clean records that every node has one without tiny elementary arcs,
// which the bitset greedy needs.
func (t *CoverTable) arrange() {
	if t.arranged {
		return
	}
	t.arranged = true
	n := t.n
	t.clean = n <= 64
	if !t.clean {
		return
	}
	if cap(t.all) < n {
		t.all = make([]uint64, n)
		t.tiny = make([]uint64, n)
		t.off = make([]int, n+1)
		t.cov = make([]uint64, n)
		t.score = make([]int64, n)
	}
	t.all, t.tiny, t.off = t.all[:n], t.tiny[:n], t.off[:n+1]
	if cap(t.elem) < n*n {
		t.elem = make([]uint64, n*n)
	}
	t.elem = t.elem[:n*n]
	t.off[0] = 0
	c := &t.cut
	cuts := t.cuts[:0]
	for i := 0; i < n; i++ {
		row := t.arcs[i*n : (i+1)*n]
		c.reset(n)
		ok := true
		for rest := t.helpers[i]; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros64(rest)
			switch a := row[j]; {
			case a == FullArc():
			case arrangeable(a):
				c.add(j, a)
			default:
				ok = false
			}
		}
		elem := t.elem[i*n : (i+1)*n]
		clear(elem)
		if !ok || !c.arrange(row) || len(c.cuts) > 65 {
			t.all[i], t.tiny[i], t.clean = 0, 0, false
			t.off[i+1] = len(cuts)
			continue
		}
		all := span(0, len(c.cuts)-1)
		for rest := t.helpers[i]; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros64(rest)
			if a := row[j]; a == FullArc() {
				elem[j] = all
			} else {
				c.setArc(elem[j:j+1], j, a)
			}
		}
		t.all[i], t.tiny[i] = all, 0
		c.setTiny(t.tiny[i : i+1])
		if t.tiny[i] != 0 {
			t.clean = false
		}
		cuts = append(cuts, c.cuts...)
		t.off[i+1] = len(cuts)
	}
	t.cuts = cuts
	t.qcut = slices.Grow(t.qcut[:0], len(cuts))[:len(cuts)]
	for k, c := range cuts {
		t.qcut[k] = int64(c * qScale)
	}
}

// coveredBy reports whether node i's disk is fully covered by the nodes
// whose bits are set in mask (i's own bit is ignored): every elementary
// arc of i meets mask. It is the hot path of the exact search; the float
// sweep decides what the bitsets cannot.
func (t *CoverTable) coveredBy(i int, mask uint64) bool {
	if u := t.all[i]; u != 0 {
		row := t.elem[i*t.n : (i+1)*t.n]
		for rest := mask & t.helpers[i]; rest != 0 && u != 0; rest &= rest - 1 {
			u &^= row[bits.TrailingZeros64(rest)]
		}
		if u == 0 {
			return true
		}
		if u&^t.tiny[i] != 0 {
			return false
		}
	}
	t.floatCovers++
	members := t.members[:0]
	for rest := mask & t.helpers[i]; rest != 0; rest &= rest - 1 {
		members = append(members, bits.TrailingZeros64(rest))
	}
	t.members = members
	return t.sweptCover(i, members)
}

// greedyBits is greedyCoverSet on the arrangements of a clean table. A
// candidate's score — its own uncovered measure plus what it would newly
// cover of every other unselected node — is kept in fixed point and
// lowered, after each pick, by exactly what the pick newly covered. The
// pick is the float rule's: the highest score, the lowest index among
// equals. Candidates within greedyMargin of the best are ranked by their
// float scores, re-derived as the float rule computes them.
func (t *CoverTable) greedyBits() []int {
	n := t.n
	cov, score := t.cov[:n], t.score[:n]
	clear(cov)
	full := t.qcut[t.off[1]-1] // every node's last cut is 2π
	for j := range score {
		s := full
		for rest := t.helped[j]; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			s += t.measure(i, t.elem[i*n+j])
		}
		score[j] = s
	}
	var sel uint64
	open := n // unselected nodes with an uncovered elementary arc
	order := t.order[:0]
	for open > 0 {
		best, top := -1, int64(0)
		for j, s := range score {
			if sel&(1<<uint(j)) == 0 && (best < 0 || s > top) {
				best, top = j, s
			}
		}
		for j, s := range score {
			if j != best && sel&(1<<uint(j)) == 0 && s >= top-greedyMargin {
				best = t.tieBreak(sel, top-greedyMargin)
				break
			}
		}
		// best needs no covering any more: drop the gains toward it.
		if rem := t.all[best] &^ cov[best]; rem != 0 {
			open--
			for rest := t.helpers[best] &^ sel; rest != 0; rest &= rest - 1 {
				j := bits.TrailingZeros64(rest)
				score[j] -= t.measure(best, t.elem[best*n+j]&rem)
			}
		}
		sel |= 1 << uint(best)
		order = append(order, best)
		for rest := t.helped[best] &^ sel; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			gained := t.elem[i*n+best] &^ cov[i]
			if gained == 0 {
				continue
			}
			cov[i] |= gained
			score[i] -= t.measure(i, gained)
			for r2 := t.helpers[i] &^ sel; r2 != 0; r2 &= r2 - 1 {
				j := bits.TrailingZeros64(r2)
				if d := t.elem[i*n+j] & gained; d != 0 {
					score[j] -= t.measure(i, d)
				}
			}
			if cov[i] == t.all[i] {
				open--
			}
		}
	}
	// Redundancy pruning, most recently added first, as the float rule.
	for k := len(order) - 1; k >= 0; k-- {
		if m := sel &^ (1 << uint(order[k])); m != 0 && t.feasible(m) {
			sel = m
		}
	}
	order = order[:0]
	for rest := sel; rest != 0; rest &= rest - 1 {
		order = append(order, bits.TrailingZeros64(rest))
	}
	t.order = order
	return order
}

// tieBreak returns the pick of the float greedy rule among the
// unselected candidates scoring at least floor; every other candidate
// scores below each of them in floats too (greedyMargin). It rebuilds
// each unselected node's merged segments and covered measure from its
// covered elementary arcs — the very acc and covered the float rule
// holds, since no gap of a clean table is within coverEps — and sums
// each candidate's score in the float rule's order.
func (t *CoverTable) tieBreak(sel uint64, floor int64) int {
	t.ties++
	n := t.n
	acc, covered := t.acc[:n], t.covered[:n]
	for i := 0; i < n; i++ {
		if sel&(1<<uint(i)) == 0 {
			acc[i] = t.segmentsOf(acc[i][:0], i, t.cov[i])
			covered[i] = measureOf(acc[i])
		}
	}
	best, bestScore := -1, -1.0
	for j := 0; j < n; j++ {
		if sel&(1<<uint(j)) != 0 || t.score[j] < floor {
			continue
		}
		score := FullCircle - covered[j]
		for rest := t.helped[j] &^ sel; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			if t.cov[i] != t.all[i] {
				score += coveredWith(acc[i], t.arcs[i*n+j]) - covered[i]
			}
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

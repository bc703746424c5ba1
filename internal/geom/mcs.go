package geom

import (
	"math/bits"
	"slices"
)

// ExactMCSLimit is the largest set size for which MinCoverSet uses the
// exact (optimal) search. The paper's companion reference [18] gives an
// O(n^{4/3}) algorithm that is not publicly available; for the set sizes
// that arise in the paper's simulations (average node degree ≈ 4–20) an
// exact combinatorial search is affordable and, unlike a heuristic,
// guarantees the minimal |S'| that LAMM's efficiency analysis assumes.
// Larger sets fall back to a greedy heuristic with redundancy pruning.
const ExactMCSLimit = 16

// MinCoverSet computes MCS(S): a minimum-cardinality subset S' of pts such
// that A(S') = A(pts) (Definition 1), where every station has transmission
// radius r. It returns the selected indices in increasing order.
//
// Coverage is decided with the paper's angle-based criterion (Theorem 4),
// which for equal radii is exact over the contributions of neighboring
// disks. For len(pts) ≤ ExactMCSLimit the result is provably minimal;
// beyond that a greedy heuristic is used (see GreedyCoverSet).
func MinCoverSet(pts []Point, r float64) []int {
	var t CoverTable
	t.Fill(pts, r)
	return slices.Clone(t.MinCoverSet())
}

// ExactCoverSet finds a provably minimum cover set with a bounded
// branch-and-bound: a greedy solution supplies the upper bound, the set
// of "mandatory" nodes (nodes no combination of the others can cover,
// which therefore belong to every cover set) supplies a lower bound and a
// subset filter, and cardinalities in between are enumerated with
// Gosper's hack. It panics if len(pts) > 64; callers should route through
// MinCoverSet, which bounds the exact search by ExactMCSLimit.
func ExactCoverSet(pts []Point, r float64) []int {
	var t CoverTable
	t.Fill(pts, r)
	return slices.Clone(t.exactCoverSet())
}

// GreedyCoverSet computes a (not necessarily minimal) cover set using a
// largest-arc-reduction greedy rule followed by redundancy pruning:
//
//  1. repeatedly select the node whose addition most reduces the total
//     uncovered arc measure across all not-yet-selected, not-yet-covered
//     nodes (selecting a node also discharges its own coverage
//     obligation);
//  2. attempt to drop each selected node, most recently added first,
//     keeping the drop when the remainder is still a cover set.
//
// The result always satisfies IsCoverSet.
func GreedyCoverSet(pts []Point, r float64) []int {
	var t CoverTable
	t.Fill(pts, r)
	return slices.Clone(t.greedyCoverSet())
}

// CoverTable holds the pairwise cover angles of one point set and runs
// the MCS(S) search over them. Entry (i, j) is CoverAngle(p_i, p_j, r):
// the sector of node i's disk that node j's disk covers. The exact
// branch and bound, the greedy rule and greedy's redundancy pruning all
// read the one table, so each angle is computed once per search, and a
// caller that already knows the angles (a per-topology store) fills the
// table without computing any.
//
// Up to 64 points, each node's circle is also cut into its arc
// arrangement (arrange.go), and the search decides coverage on those
// bitsets, sweeping floats only where the bitsets cannot tell. The
// results are the float search's, bit for bit.
//
// The flat n·n buffers and all search scratch grow to the largest n seen
// and are reused: after warm-up, a fill and a search allocate nothing.
// Results are returned in table-owned slices, valid until the next
// Reset or search. The zero value is an empty table; a CoverTable must
// not be used concurrently.
type CoverTable struct {
	n       int
	arcs    []Arc    // arcs[i*n+j]: cover angle of i for j, valid when has
	has     []bool   // has[i*n+j]: j's disk contributes to covering i's
	helpers []uint64 // helpers[i]: bitmask of j≠i with has (n ≤ 64 only)
	helped  []uint64 // helped[j]: bitmask of i≠j with has (n ≤ 64 only)

	// The arrangement, built by arrange on first search after a fill.
	arranged bool
	clean    bool // every node arranged, no tiny elementary arc
	cut      cutter
	cuts     []float64 // cuts[off[i]:off[i+1]]: node i's cut points
	qcut     []int64   // the cut points in qScale fixed point
	off      []int
	elem     []uint64 // elem[i*n+j]: elementary arcs of i that j covers
	all      []uint64 // all[i]: every elementary arc of i; 0 if none built
	tiny     []uint64 // tiny[i]: elementary arcs of i within tinyArc
	cov      []uint64 // greedy: covered elementary arcs per node
	score    []int64  // greedy: fixed-point candidate scores

	// Fallback census: coverage tests swept in floats, greedy runs on
	// the float rule, and bitset greedy picks re-ranked in floats.
	floatCovers, floatGreedies, ties int

	segs     []Arc   // merged segments of the coverage check in progress
	swept    []Arc   // the arcs that check sweeps
	members  []int   // the nodes whose arcs it sweeps
	acc      [][]Arc // acc[i]: merged segments already covering node i
	covered  []float64
	selected []bool
	open     []int
	order    []int
	trial    []int
	out      []int
}

// Reset empties the table and sizes it for n points.
func (t *CoverTable) Reset(n int) {
	t.n = n
	if cap(t.has) < n*n {
		t.arcs = make([]Arc, n*n)
		t.has = make([]bool, n*n)
	}
	t.arcs, t.has = t.arcs[:n*n], t.has[:n*n]
	clear(t.has)
	if cap(t.helpers) < n {
		t.helpers = make([]uint64, n)
		t.helped = make([]uint64, n)
		t.covered = make([]float64, n)
		t.selected = make([]bool, n)
	}
	t.helpers, t.helped, t.covered = t.helpers[:n], t.helped[:n], t.covered[:n]
	t.selected = t.selected[:n]
	clear(t.helpers)
	clear(t.helped)
	t.arranged = false
	for len(t.acc) < n {
		t.acc = append(t.acc, nil)
	}
}

// Set records CoverAngle's result for the ordered pair (i, j), i ≠ j:
// a is the cover angle of i for j, ok whether j covers any of i at all.
// Each pair is set at most once after a Reset.
func (t *CoverTable) Set(i, j int, a Arc, ok bool) {
	k := i*t.n + j
	t.has[k] = ok
	t.arcs[k] = a
	if ok && t.n <= 64 {
		t.helpers[i] |= 1 << uint(j)
		t.helped[j] |= 1 << uint(i)
	}
	t.arranged = false
}

// Fill resets the table to pts and computes every pairwise cover angle.
func (t *CoverTable) Fill(pts []Point, r float64) {
	t.Reset(len(pts))
	for i := range pts {
		for j := range pts {
			if i != j {
				a, ok := CoverAngle(pts[i], pts[j], r)
				t.Set(i, j, a, ok)
			}
		}
	}
}

// MinCoverSet computes MCS(S) over the table, as the package-level
// MinCoverSet does over points: the exact search up to ExactMCSLimit
// points, the greedy heuristic beyond.
func (t *CoverTable) MinCoverSet() []int {
	if t.n <= ExactMCSLimit {
		return t.exactCoverSet()
	}
	return t.greedyCoverSet()
}

// feasible reports whether the subset encoded by mask is a cover set:
// every node outside mask must be fully covered by the nodes inside it.
func (t *CoverTable) feasible(mask uint64) bool {
	for i := 0; i < t.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		// Fast necessary condition: some helper must be selected at all.
		if mask&t.helpers[i] == 0 {
			return false
		}
		if !t.coveredBy(i, mask) {
			return false
		}
	}
	return true
}

// exactCoverSet is ExactCoverSet over the table.
func (t *CoverTable) exactCoverSet() []int {
	n := t.n
	if n == 0 {
		return nil
	}
	if n > 64 {
		panic("geom: ExactCoverSet limited to 64 points")
	}
	if n == 1 {
		t.out = append(t.out[:0], 0)
		return t.out
	}
	t.arrange()
	greedy := t.greedyCoverSet()
	all := uint64(1)<<uint(n) - 1
	// Mandatory nodes: not coverable even by all other nodes combined.
	var mandatory uint64
	for i := 0; i < n; i++ {
		if !t.coveredBy(i, all&^(1<<uint(i))) {
			mandatory |= 1 << uint(i)
		}
	}
	lb := bits.OnesCount64(mandatory)
	if lb == 0 {
		lb = 1
	}
	for k := lb; k < len(greedy); k++ {
		if mask, ok := t.firstFeasible(k, mandatory); ok {
			out := t.out[:0]
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					out = append(out, i)
				}
			}
			t.out = out
			return out
		}
	}
	// The greedy solution is already optimal.
	return greedy
}

// firstFeasible enumerates the k-subsets of {0..n-1} that contain every
// mandatory node (Gosper's hack) and returns the first feasible one.
func (t *CoverTable) firstFeasible(k int, mandatory uint64) (uint64, bool) {
	limit := uint64(1) << uint(t.n)
	mask := uint64(1)<<uint(k) - 1
	for mask < limit {
		if mask&mandatory == mandatory && t.feasible(mask) {
			return mask, true
		}
		// Gosper's hack: next subset with the same popcount.
		c := mask & (-mask)
		rr := mask + c
		mask = (((rr ^ mask) >> 2) / c) | rr
	}
	return 0, false
}

// coveredWith returns the covered measure of segs ∪ {a}, where segs is a
// merged, sorted list of non-wrapping segments. It sweeps segs and a's
// one or two segments in the order a stable sort of segs+split(a) by Lo
// gives (a's parts after equal-Lo members of segs), without building
// that list.
func coveredWith(segs []Arc, a Arc) float64 {
	add, m := [2]Arc{a}, 1
	if a.Hi > FullCircle {
		add, m = [2]Arc{{Lo: 0, Hi: a.Hi - FullCircle}, {Lo: a.Lo, Hi: FullCircle}}, 2
	}
	total, reach := 0.0, -1.0
	k := 0
	for _, s := range segs {
		for ; k < m && add[k].Lo < s.Lo; k++ {
			total, reach = sweep(total, reach, add[k])
		}
		total, reach = sweep(total, reach, s)
	}
	for ; k < m; k++ {
		total, reach = sweep(total, reach, add[k])
	}
	if total > FullCircle {
		total = FullCircle
	}
	return total
}

// sweep adds segment s, the next in Lo order, to a union measure total
// whose covered prefix ends at reach.
func sweep(total, reach float64, s Arc) (float64, float64) {
	if s.Lo > reach {
		return total + (s.Hi - s.Lo), s.Hi
	}
	if s.Hi > reach {
		return total + (s.Hi - reach), s.Hi
	}
	return total, reach
}

// greedyCoverSet is GreedyCoverSet over the table; the result is in
// increasing order.
func (t *CoverTable) greedyCoverSet() []int {
	n := t.n
	if n == 0 {
		return nil
	}
	if n == 1 {
		t.order = append(t.order[:0], 0)
		return t.order
	}
	t.arrange()
	if t.clean {
		return t.greedyBits()
	}
	t.floatGreedies++
	return t.greedyFloat()
}

// greedyFloat is greedyCoverSet on float arc sweeps, for tables without
// a clean arrangement.
func (t *CoverTable) greedyFloat() []int {
	n := t.n
	selected, covered := t.selected, t.covered
	clear(selected)
	clear(covered)
	// acc[i] holds the merged, sorted, non-wrapping segments already
	// covering node i's circle; covered[i] their total measure.
	acc := t.acc[:n]
	for i := range acc {
		acc[i] = acc[i][:0]
	}
	uncov := func(i int) float64 {
		if selected[i] {
			return 0
		}
		return FullCircle - covered[i]
	}
	order := t.order[:0]
	open := t.open[:0]
	for {
		open = open[:0]
		for i := 0; i < n; i++ {
			if !selected[i] && uncov(i) > coverEps {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			break
		}
		// Each round scores every candidate afresh: its own uncovered
		// measure, since selecting it discharges its own obligation, plus
		// what it would newly cover of each open node, in index order.
		best, bestScore := -1, -1.0
		for j := 0; j < n; j++ {
			if selected[j] {
				continue
			}
			score := uncov(j)
			for _, i := range open {
				if i != j && t.has[i*n+j] {
					score += coveredWith(acc[i], t.arcs[i*n+j]) - covered[i]
				}
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			break // cannot happen: selecting everything is always feasible
		}
		selected[best] = true
		order = append(order, best)
		for i := 0; i < n; i++ {
			if i != best && t.has[i*n+best] {
				acc[i] = mergeArc(acc[i], t.arcs[i*n+best])
				covered[i] = measureOf(acc[i])
			}
		}
	}
	t.open = open
	// Redundancy pruning, most recently added first. A drop is kept when
	// every node outside the trial set is still covered by it; selected
	// marks the trial set's members.
	trial := t.trial
	for k := len(order) - 1; k >= 0; k-- {
		trial = append(append(trial[:0], order[:k]...), order[k+1:]...)
		if len(trial) > 0 && t.isCover(trial) {
			order, trial = trial, order
		}
	}
	t.order, t.trial = order, trial
	slices.Sort(order)
	return order
}

// isCover reports whether members is a cover set of the table's points:
// IsCoverSet decided from the stored angles.
func (t *CoverTable) isCover(members []int) bool {
	in := t.selected
	clear(in)
	for _, j := range members {
		in[j] = true
	}
	for i := 0; i < t.n; i++ {
		if !in[i] && !t.sweptCover(i, members) {
			return false
		}
	}
	return true
}

// sweptCover reports whether the members' stored angles for node i cover
// its circle, as CircleCovered decides it: the float test behind every
// coverage decision the arrangements leave open.
func (t *CoverTable) sweptCover(i int, members []int) bool {
	arcs := t.swept[:0]
	for _, j := range members {
		if k := i*t.n + j; t.has[k] {
			arcs = append(arcs, t.arcs[k])
		}
	}
	var covered bool
	covered, t.segs = CircleCovered(arcs, t.segs)
	t.swept = arcs
	return covered
}

// CoverSetSizeBound returns a trivial lower bound on the minimum cover set
// size: the number of "lonely" nodes whose disks cannot be covered even by
// all other nodes combined (each such node must belong to every cover
// set). Used by tests and by diagnostics.
func CoverSetSizeBound(pts []Point, r float64) int {
	count := 0
	for i, p := range pts {
		others := make([]Point, 0, len(pts)-1)
		for j, q := range pts {
			if j != i {
				others = append(others, q)
			}
		}
		if !DiskCovered(p, others, r) {
			count++
		}
	}
	return count
}

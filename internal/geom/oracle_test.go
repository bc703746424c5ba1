package geom

import "math/bits"

// oracleTable is the MCS(S) search on float arc sweeps alone, as it
// stood before the arc arrangements: every coverage test of the exact
// search hands the helpers' arcs to CircleCovered, and the greedy is
// naiveGreedyCoverSet. It is the oracle the arrangement-driven
// CoverTable must match byte for byte.
type oracleTable struct {
	pts     []Point
	r       float64
	n       int
	arcs    []Arc
	has     []bool
	helpers []uint64
}

func newOracleTable(pts []Point, r float64) *oracleTable {
	n := len(pts)
	t := &oracleTable{pts: pts, r: r, n: n, arcs: make([]Arc, n*n), has: make([]bool, n*n), helpers: make([]uint64, n)}
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			a, ok := CoverAngle(pts[i], pts[j], r)
			t.arcs[i*n+j], t.has[i*n+j] = a, ok
			if ok && n <= 64 {
				t.helpers[i] |= 1 << uint(j)
			}
		}
	}
	return t
}

func (t *oracleTable) minCoverSet() []int {
	if t.n <= ExactMCSLimit {
		return t.exactCoverSet()
	}
	return naiveGreedyCoverSet(t.pts, t.r)
}

func (t *oracleTable) coveredBy(i int, mask uint64) bool {
	var arcs []Arc
	for rest := mask & t.helpers[i]; rest != 0; rest &= rest - 1 {
		arcs = append(arcs, t.arcs[i*t.n+bits.TrailingZeros64(rest)])
	}
	covered, _ := CircleCovered(arcs, nil)
	return covered
}

func (t *oracleTable) feasible(mask uint64) bool {
	for i := 0; i < t.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		if mask&t.helpers[i] == 0 || !t.coveredBy(i, mask) {
			return false
		}
	}
	return true
}

func (t *oracleTable) exactCoverSet() []int {
	n := t.n
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	greedy := naiveGreedyCoverSet(t.pts, t.r)
	all := uint64(1)<<uint(n) - 1
	var mandatory uint64
	for i := 0; i < n; i++ {
		if !t.coveredBy(i, all&^(1<<uint(i))) {
			mandatory |= 1 << uint(i)
		}
	}
	lb := max(bits.OnesCount64(mandatory), 1)
	for k := lb; k < len(greedy); k++ {
		limit := uint64(1) << uint(n)
		for mask := uint64(1)<<uint(k) - 1; mask < limit; {
			if mask&mandatory == mandatory && t.feasible(mask) {
				var out []int
				for i := 0; i < n; i++ {
					if mask&(1<<uint(i)) != 0 {
						out = append(out, i)
					}
				}
				return out
			}
			c := mask & (-mask)
			rr := mask + c
			mask = (((rr ^ mask) >> 2) / c) | rr
		}
	}
	return greedy
}

package geom

import "math/bits"

// oracleTable is the MCS(S) search on float arc sweeps alone, as it
// stood before the arc arrangements: every coverage test splits, sorts
// and sweeps the helpers' arcs (coveredBy, coveredByList), and the
// greedy keeps merged segments per node with a cached gain table. It is
// the oracle the arrangement-driven CoverTable must match byte for byte.
type oracleTable struct {
	n       int
	arcs    []Arc
	has     []bool
	helpers []uint64
}

func newOracleTable(pts []Point, r float64) *oracleTable {
	n := len(pts)
	t := &oracleTable{n: n, arcs: make([]Arc, n*n), has: make([]bool, n*n), helpers: make([]uint64, n)}
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
	return t.greedyCoverSet()
}

func (t *oracleTable) coveredBy(i int, mask uint64) bool {
	var segs []Arc
	row := t.arcs[i*t.n : (i+1)*t.n]
	for rest := mask & t.helpers[i]; rest != 0; rest &= rest - 1 {
		a := row[bits.TrailingZeros64(rest)]
		if a.IsFull() {
			return true
		}
		segs = splitArc(segs, a)
	}
	return segmentsCoverCircle(segs)
}

func (t *oracleTable) coveredByList(i int, members []int) bool {
	var segs []Arc
	for _, j := range members {
		if !t.has[i*t.n+j] {
			continue
		}
		a := t.arcs[i*t.n+j]
		if a.IsFull() {
			return true
		}
		segs = splitArc(segs, a)
	}
	return segmentsCoverCircle(segs)
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
	greedy := t.greedyCoverSet()
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

func (t *oracleTable) greedyCoverSet() []int {
	n := t.n
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	selected := make([]bool, n)
	covered := make([]float64, n)
	gain := make([]float64, n*n)
	dirty := make([]bool, n)
	acc := make([][]Arc, n)
	for i := range dirty {
		dirty[i] = true
	}
	uncov := func(i int) float64 {
		if selected[i] {
			return 0
		}
		return FullCircle - covered[i]
	}
	var order []int
	for {
		var open []int
		for i := 0; i < n; i++ {
			if !selected[i] && uncov(i) > coverEps {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			break
		}
		for _, i := range open {
			if !dirty[i] {
				continue
			}
			dirty[i] = false
			for j := 0; j < n; j++ {
				if selected[j] {
					continue
				}
				g := 0.0
				if j != i && t.has[i*n+j] {
					g = coveredWith(acc[i], t.arcs[i*n+j]) - covered[i]
				}
				gain[j*n+i] = g
			}
		}
		best, bestScore := -1, -1.0
		for j := 0; j < n; j++ {
			if selected[j] {
				continue
			}
			score := uncov(j)
			for _, i := range open {
				score += gain[j*n+i]
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		selected[best] = true
		order = append(order, best)
		for i := 0; i < n; i++ {
			if i != best && t.has[i*n+best] {
				acc[i] = mergeArc(acc[i], t.arcs[i*n+best])
				covered[i] = measureOf(acc[i])
				dirty[i] = true
			}
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		trial := append(append([]int(nil), order[:k]...), order[k+1:]...)
		if len(trial) > 0 && t.isCover(trial) {
			order = trial
		}
	}
	sortInts(order)
	return order
}

func (t *oracleTable) isCover(members []int) bool {
	in := make([]bool, t.n)
	for _, j := range members {
		in[j] = true
	}
	for i := 0; i < t.n; i++ {
		if !in[i] && !t.coveredByList(i, members) {
			return false
		}
	}
	return true
}

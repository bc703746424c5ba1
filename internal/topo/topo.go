// Package topo builds the network topologies the paper simulates: nodes
// placed in the unit square with a fixed transmission radius (100 nodes,
// radius 0.2 by default), plus the neighbor tables every station is
// assumed to have learned through beacon exchange (paper §2). It also
// provides the degree statistics used as the x axis of Figures 6(a),
// 9(a) and 10(a).
package topo

import (
	"fmt"
	"math/rand"

	"relmac/internal/geom"
)

// Topology is an immutable snapshot of station positions and the derived
// neighbor relation. Station IDs are indices 0..N-1.
type Topology struct {
	radius    float64
	pos       []geom.Point
	neighbors [][]int
}

// FromPoints builds a topology from explicit positions. The radius must be
// positive.
func FromPoints(pts []geom.Point, radius float64) *Topology {
	if radius <= 0 {
		panic("topo: radius must be positive")
	}
	t := &Topology{
		radius: radius,
		pos:    append([]geom.Point(nil), pts...),
	}
	t.buildNeighbors()
	return t
}

// Uniform places n nodes independently and uniformly at random in the unit
// square — the paper's topology model ("We randomly placed 100 nodes in a
// unit square").
func Uniform(n int, radius float64, rng *rand.Rand) *Topology {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return FromPoints(pts, radius)
}

// Grid places nodes on a regular nx × ny lattice filling the unit square.
// Useful for deterministic protocol tests.
func Grid(nx, ny int, radius float64) *Topology {
	pts := make([]geom.Point, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			x := 0.5
			if nx > 1 {
				x = float64(ix) / float64(nx-1)
			}
			y := 0.5
			if ny > 1 {
				y = float64(iy) / float64(ny-1)
			}
			pts = append(pts, geom.Pt(x, y))
		}
	}
	return FromPoints(pts, radius)
}

// bounds returns the axis-aligned bounding box of the station positions.
// Must not be called on an empty topology.
func (t *Topology) bounds() (minX, minY, maxX, maxY float64) {
	minX, minY = t.pos[0].X, t.pos[0].Y
	maxX, maxY = minX, minY
	for _, p := range t.pos[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return minX, minY, maxX, maxY
}

// gridDims picks a uniform-grid cell size and dimensions covering the
// given extent. The cell starts at the requested size and doubles until
// the cell count is linear in n, so pathological extent/size ratios
// (one far outlier with a tiny radius) cannot blow up memory; oversized
// cells only cost extra candidate scans, never correctness.
func gridDims(extX, extY, size float64, n int) (float64, int, int) {
	for {
		cols := int(extX/size) + 1
		rows := int(extY/size) + 1
		if float64(cols)*float64(rows) <= float64(4*n+64) {
			return size, cols, rows
		}
		size *= 2
	}
}

// buildNeighbors computes the neighbor lists with a uniform-grid spatial
// index so construction stays near-linear in the node count even for the
// dense sweeps of Figure 6(a). The grid extent comes from the actual
// position bounds — not an assumed unit square — so topologies that
// drift outside [0,1] (mobility) or live on another scale entirely index
// correctly; the buckets are dense counting-sort slices rather than a
// map, which kills the per-node map/append churn at 100k+ stations.
func (t *Topology) buildNeighbors() {
	n := len(t.pos)
	t.neighbors = make([][]int, n)
	if n == 0 {
		return
	}
	minX, minY, maxX, maxY := t.bounds()
	cell, cols, rows := gridDims(maxX-minX, maxY-minY, t.radius, n)
	cellOf := func(p geom.Point) int {
		cx := int((p.X - minX) / cell)
		cy := int((p.Y - minY) / cell)
		// Floating-point guards only: positions are inside the bounds by
		// construction, but the division can land exactly on an edge.
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		return cy*cols + cx
	}
	// Dense cell buckets: per-cell counts, prefix sums, then a fill pass.
	// items[start[c]:start[c+1]] holds the stations of cell c in ID order.
	start := make([]int32, cols*rows+1)
	for _, p := range t.pos {
		start[cellOf(p)+1]++
	}
	for c := 1; c <= cols*rows; c++ {
		start[c] += start[c-1]
	}
	items := make([]int32, n)
	cursor := append([]int32(nil), start[:cols*rows]...)
	for i, p := range t.pos {
		c := cellOf(p)
		items[cursor[c]] = int32(i)
		cursor[c]++
	}
	// The lists share one flat backing array: station i's list is
	// flat[end[i-1]:end[i]], capped so that no list can grow into the
	// next. They are cut only after the last append, which may move it.
	r2 := t.radius * t.radius
	flat := make([]int, 0, 8*n)
	end := make([]int, n)
	for i, p := range t.pos {
		from := len(flat)
		c := cellOf(p)
		cx, cy := c%cols, c/cols
		for dy := -1; dy <= 1; dy++ {
			ny := cy + dy
			if ny < 0 || ny >= rows {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := cx + dx
				if nx < 0 || nx >= cols {
					continue
				}
				nc := ny*cols + nx
				for _, j32 := range items[start[nc]:start[nc+1]] {
					j := int(j32)
					if j != i && p.Dist2(t.pos[j]) <= r2 {
						flat = append(flat, j)
					}
				}
			}
		}
		sortInts(flat[from:])
		end[i] = len(flat)
	}
	from := 0
	for i, to := range end {
		if to > from {
			t.neighbors[i] = flat[from:to:to]
		}
		from = to
	}
}

// N returns the number of stations.
func (t *Topology) N() int { return len(t.pos) }

// Radius returns the common transmission radius.
func (t *Topology) Radius() float64 { return t.radius }

// Pos returns the position of station i.
func (t *Topology) Pos(i int) geom.Point { return t.pos[i] }

// Positions returns a copy of all station positions.
func (t *Topology) Positions() []geom.Point {
	return append([]geom.Point(nil), t.pos...)
}

// Neighbors returns the station IDs within transmission range of i, in
// increasing order. The returned slice is shared; callers must not modify
// it.
func (t *Topology) Neighbors(i int) []int { return t.neighbors[i] }

// Degree returns the number of neighbors of station i.
func (t *Topology) Degree(i int) int { return len(t.neighbors[i]) }

// InRange reports whether stations i and j can hear each other.
func (t *Topology) InRange(i, j int) bool {
	return t.pos[i].InRange(t.pos[j], t.radius)
}

// Dist returns the Euclidean distance between stations i and j.
func (t *Topology) Dist(i, j int) float64 { return t.pos[i].Dist(t.pos[j]) }

// AvgDegree returns the mean neighbor count — the "average number of
// neighbors" x axis of Figures 6(a), 9(a) and 10(a).
func (t *Topology) AvgDegree() float64 {
	if len(t.pos) == 0 {
		return 0
	}
	total := 0
	for _, nb := range t.neighbors {
		total += len(nb)
	}
	return float64(total) / float64(len(t.pos))
}

// Connected reports whether the neighbor graph is connected (ignoring
// isolated-node-free requirements: a single node is connected).
func (t *Topology) Connected() bool {
	n := len(t.pos)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range t.neighbors[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// String summarises the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topo{n=%d r=%.3g avgDeg=%.2f connected=%v}",
		t.N(), t.radius, t.AvgDegree(), t.Connected())
}

// NeighborPositions returns the positions of the given station IDs;
// convenience for the geometry procedures of LAMM.
func (t *Topology) NeighborPositions(ids []int) []geom.Point {
	out := make([]geom.Point, len(ids))
	for k, id := range ids {
		out[k] = t.pos[id]
	}
	return out
}

// sortInts sorts a neighbour list in place. It stays an insertion sort:
// on these short lists, a few ID-ordered cell runs each, slices.Sort
// measured slower in topology set-up.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

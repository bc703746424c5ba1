// Package geom implements the computational geometry used by the LAMM
// (Location Aware Multicast MAC) protocol of Sun, Huang, Arora and Lai
// (ICPP 2002): coverage disks, cover angles (Definition 2), circular-arc
// unions (Theorem 4), cover sets (Definition 1, Theorems 1 and 3), the
// minimum cover set computation MCS(S) (Theorem 2) and the angle-based
// UPDATE(S, S_ACK) procedure.
//
// All stations are modelled as points in the plane with a common
// transmission radius R; the coverage area A(p) of a station p is the
// closed disk of radius R centred at p. Angles are expressed in radians
// and measured counter-clockwise from the positive x axis, matching the
// paper's "intersection of the straight horizontal line passing through p
// and the A(p) boundary to the east of p" reference direction.
package geom

import "math"

// Point is a station location in the unit square (or any planar region).
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by the factor k.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive for range tests.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Angle returns the angle of the vector from p to q, in radians within
// [0, 2π). If p == q the angle is 0 by convention.
func (p Point) Angle(q Point) float64 {
	a := math.Atan2(q.Y-p.Y, q.X-p.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// InRange reports whether q lies within transmission radius r of p
// (inclusive). This is the paper's neighbor relation: two stations are
// neighbors iff each can decode the other's transmissions.
func (p Point) InRange(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// Command covertool inspects the computational geometry behind LAMM:
// given station coordinates it reports the minimum cover set MCS(S), the
// greedy cover set, per-node cover angles and coverage gaps, and renders
// a small ASCII map.
//
// Points are read from stdin (one "x y" pair per line) or generated
// randomly with -random N.
//
// Usage:
//
//	echo "0.5 0.5\n0.6 0.5\n0.6 0.5" | covertool -radius 0.2
//	covertool -random 10 -seed 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"relmac/internal/geom"
)

func main() {
	radius := flag.Float64("radius", 0.2, "transmission radius")
	random := flag.Int("random", 0, "generate N random points instead of reading stdin")
	seed := flag.Int64("seed", 1, "seed for -random")
	spread := flag.Float64("spread", 0.15, "spread of random points around (0.5,0.5)")
	flag.Parse()
	if !(*radius > 0) || !finite(*radius) {
		fmt.Fprintf(os.Stderr, "radius %g; it must be positive and finite\n", *radius)
		os.Exit(2)
	}

	var pts []geom.Point
	if *random > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *random; i++ {
			th := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * *spread
			pts = append(pts, geom.Pt(0.5+d*math.Cos(th), 0.5+d*math.Sin(th)))
		}
	} else {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 2 {
				continue
			}
			x, errX := strconv.ParseFloat(fields[0], 64)
			y, errY := strconv.ParseFloat(fields[1], 64)
			if errX != nil || errY != nil {
				fmt.Fprintf(os.Stderr, "skipping malformed line: %s\n", sc.Text())
				continue
			}
			pts = append(pts, geom.Pt(x, y))
		}
	}
	if len(pts) == 0 {
		fmt.Fprintln(os.Stderr, "no points; pipe \"x y\" lines or use -random N")
		os.Exit(2)
	}
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			fmt.Fprintf(os.Stderr, "point %d is (%g, %g); coordinates must be finite\n", i, p.X, p.Y)
			os.Exit(2)
		}
	}

	fmt.Printf("%d stations, radius %g\n\n", len(pts), *radius)
	for i, p := range pts {
		fmt.Printf("  %2d: (%.3f, %.3f)\n", i, p.X, p.Y)
	}

	mcs := geom.MinCoverSet(pts, *radius)
	greedy := geom.GreedyCoverSet(pts, *radius)
	fmt.Printf("\nminimum cover set MCS(S): %v  (|S'| = %d of %d)\n", mcs, len(mcs), len(pts))
	fmt.Printf("greedy cover set:         %v  (size %d)\n", greedy, len(greedy))
	fmt.Printf("mandatory-node lower bound: %d\n\n", geom.CoverSetSizeBound(pts, *radius))

	sel := make([]geom.Point, len(mcs))
	inMCS := map[int]bool{}
	for k, i := range mcs {
		sel[k] = pts[i]
		inMCS[i] = true
	}
	for i, p := range pts {
		if inMCS[i] {
			continue
		}
		gaps := geom.CoverageGaps(p, sel, *radius)
		if len(gaps) == 0 {
			fmt.Printf("  node %2d: fully covered by MCS members\n", i)
		} else {
			fmt.Printf("  node %2d: NOT covered, gaps %v (cover-set invariant violated!)\n", i, gaps)
		}
	}

	fmt.Println("\nASCII map ('*' = MCS member, 'o' = covered node):")
	renderMap(pts, inMCS)
}

func renderMap(pts []geom.Point, inMCS map[int]bool) {
	const W, H = 61, 25
	grid := make([][]byte, H)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", W))
	}
	minX, maxX, minY, maxY := 1.0, 0.0, 1.0, 0.0
	for _, p := range pts {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1e-9
	}
	if maxY == minY {
		maxY = minY + 1e-9
	}
	// cell maps v in [lo, hi] onto 0..n-1. The terms are halved so that
	// the extent of any finite coordinates stays finite; halving is exact,
	// so the cells are those of the unhalved formula.
	cell := func(v, lo, hi float64, n int) int {
		return int((v/2 - lo/2) / (hi/2 - lo/2) * float64(n-1))
	}
	for i, p := range pts {
		x, y := cell(p.X, minX, maxX, W), cell(p.Y, minY, maxY, H)
		c := byte('o')
		if inMCS[i] {
			c = '*'
		}
		grid[H-1-y][x] = c
	}
	for _, row := range grid {
		fmt.Println(string(row))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

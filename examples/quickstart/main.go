// Quickstart: simulate one reliable multicast with LAMM and print what
// happened on the air.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"math"

	"relmac/internal/core"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// printer traces every transmission to stdout.
type printer struct{}

func (printer) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

func (printer) Observe(ev *sim.Event) {
	span := fmt.Sprintf("%d", ev.Start)
	if ev.End != ev.Start {
		span = fmt.Sprintf("%d-%d", ev.Start, ev.End)
	}
	fmt.Printf("  slot %-6s  %-4s %s→%s\n", span, ev.Frame.Type, ev.Frame.Src, ev.Frame.Dst)
}

func main() {
	seed := flag.Int64("seed", 0, "engine RNG seed (channel randomness: backoff draws, capture)")
	flag.Parse()

	// A sender and a tight cluster of receivers: five on a small ring
	// plus two in its interior. Ring nodes are convex-hull vertices and
	// must be polled (each has an outward coverage gap); the interior
	// nodes are covered by the ring, so LAMM skips their RTS/RAK/CTS/ACK
	// exchanges entirely.
	pts := []geom.Point{geom.Pt(0.50, 0.50)} // 0: the multicast sender
	for i := 0; i < 5; i++ {
		th := 2 * math.Pi * float64(i) / 5
		pts = append(pts, geom.Pt(0.58+0.04*math.Cos(th), 0.50+0.04*math.Sin(th)))
	}
	pts = append(pts, geom.Pt(0.58, 0.50), geom.Pt(0.585, 0.505)) // interior receivers
	tp := topo.FromPoints(pts, 0.2)
	fmt.Println(tp)

	// Wire up the engine with metrics and a transmission trace, and run
	// the Location Aware Multicast MAC on every station.
	col := metrics.NewCollector()
	eng := sim.New(sim.Config{Topo: tp, Seed: *seed, Observers: []sim.Observer{col, printer{}}})
	eng.AttachMACs(core.NewLAMM(mac.DefaultConfig()))

	// Submit one multicast from station 0 to all seven receivers with a
	// 100-slot deadline, then let the simulation run.
	script := traffic.NewScript()
	script.At(0, &sim.Request{
		Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3, 4, 5, 6, 7}, Deadline: 100,
	})
	fmt.Println("\non the air:")
	eng.Run(120, script)

	// The record embeds the request: the engine numbered it (ID 1) and
	// counted its contention phases on it (rec.Contentions).
	rec := col.Records()[0]
	fmt.Printf("\ncompleted=%v in %d slots, %d/%d receivers got the data, %d contention phase(s)\n",
		rec.Completed, rec.CompletionTime(), rec.Delivered, len(rec.Dests), rec.Contentions)
	fmt.Printf("successful at the paper's 90%% reliability threshold: %v\n", rec.Successful(0.9))

	// LAMM's trick: it only polled the minimum cover set of the
	// receiver set. Show what that set was.
	mcs := geom.MinCoverSet(tp.NeighborPositions([]int{1, 2, 3, 4, 5, 6, 7}), tp.Radius())
	fmt.Printf("minimum cover set of the receiver set: %d of 7 receivers polled\n", len(mcs))
}

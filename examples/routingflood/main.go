// Routing flood: ad hoc routing protocols such as AODV and DSR discover
// routes by flooding a route request (RREQ) across the network — the
// higher-layer use case the paper names for reliable MAC multicast
// (§1). Every station that receives the RREQ for the first time
// rebroadcasts it to its own neighbors; the flood's reach and latency
// depend directly on how reliable each MAC-layer broadcast hop is.
//
// The example floods an RREQ from a corner of a 120-node network and
// compares the stock 802.11 broadcast with BMMM and LAMM: what fraction
// of the network learns the route, and how fast.
//
// Run with:
//
//	go run ./examples/routingflood
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"relmac/internal/capture"
	"relmac/internal/experiments"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/metrics"
	"relmac/internal/report"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// flood implements the application layer: a sim.Source that releases the
// initial RREQ, plus an Observer hook that schedules a rebroadcast the
// first time a station decodes the flood payload.
type flood struct {
	metrics.Collector // embeds the regular metrics collection

	tp      *topo.Topology
	timeout int

	seen    []bool
	seenAt  []sim.Slot
	pending map[sim.Slot][]*sim.Request
}

func newFlood(tp *topo.Topology, origin int, timeout int) *flood {
	f := &flood{
		tp:      tp,
		timeout: timeout,
		seen:    make([]bool, tp.N()),
		seenAt:  make([]sim.Slot, tp.N()),
		pending: map[sim.Slot][]*sim.Request{},
	}
	f.seen[origin] = true
	f.schedule(origin, 1)
	return f
}

// schedule queues a broadcast of the RREQ by the given station at slot t.
func (f *flood) schedule(node int, t sim.Slot) {
	nb := f.tp.Neighbors(node)
	if len(nb) == 0 {
		return
	}
	req := &sim.Request{
		Kind: sim.Broadcast, Src: node,
		Dests:   append([]int(nil), nb...),
		Arrival: t, Deadline: t + sim.Slot(f.timeout),
	}
	f.pending[t] = append(f.pending[t], req)
}

// Arrivals implements sim.Source.
func (f *flood) Arrivals(now sim.Slot) []*sim.Request {
	reqs := f.pending[now]
	delete(f.pending, now)
	return reqs
}

// Observe extends the metrics collector, whose Kinds it keeps (they
// include data-rx): a station's first DATA reception triggers its own
// rebroadcast after a tiny processing delay.
func (f *flood) Observe(ev *sim.Event) {
	f.Collector.Observe(ev)
	if ev.Kind != sim.EvDataRx || f.seen[ev.Station] {
		return
	}
	f.seen[ev.Station] = true
	f.seenAt[ev.Station] = ev.Slot
	f.schedule(ev.Station, ev.Slot+2)
}

// coverage returns the fraction of stations reached and the last slot a
// new station was reached.
func (f *flood) coverage() (float64, sim.Slot) {
	reached, last := 0, sim.Slot(0)
	for i, s := range f.seen {
		if s {
			reached++
			if f.seenAt[i] > last {
				last = f.seenAt[i]
			}
		}
	}
	return float64(reached) / float64(len(f.seen)), last
}

func main() {
	seedBase := flag.Int64("seed", 40, "base RNG seed; trial t uses seed+t")
	flag.Parse()
	const (
		nodes  = 120
		radius = 0.15
		slots  = 6000
		trials = 10
	)
	tb := report.NewTable(
		fmt.Sprintf("RREQ flood reach over %d stations (%d trials)", nodes, trials),
		"protocol", "mean reach", "min reach", "mean flood time (slots)", "MAC frames sent")

	for _, p := range []experiments.Protocol{experiments.Plain80211, experiments.BMMM, experiments.LAMM} {
		var reachSum, reachMin, timeSum, framesSum float64
		reachMin = 1
		for trial := 0; trial < trials; trial++ {
			seed := *seedBase + int64(trial)
			rng := rand.New(rand.NewSource(seed))
			tp := topo.Uniform(nodes, radius, rng)
			// Flood from the station nearest the origin corner.
			origin, bestD := 0, 10.0
			for i := 0; i < tp.N(); i++ {
				d := tp.Pos(i).Dist(geom.Pt(0, 0))
				if d < bestD {
					origin, bestD = i, d
				}
			}
			fl := newFlood(tp, origin, 200)
			eng := sim.New(sim.Config{
				Topo: tp, Observers: []sim.Observer{fl}, Seed: seed, Capture: capture.ZorziRao{},
			})
			factory, err := experiments.Factory(p, experiments.Defaults(p, seed).MAC)
			if err != nil {
				panic(err)
			}
			eng.AttachMACs(factory)
			eng.Run(slots, fl)

			reach, last := fl.coverage()
			reachSum += reach
			if reach < reachMin {
				reachMin = reach
			}
			timeSum += float64(last)
			for _, t := range []frames.Type{frames.RTS, frames.CTS, frames.Data,
				frames.ACK, frames.RAK, frames.NAK} {
				framesSum += float64(fl.FrameCount(t))
			}
		}
		tb.AddRow(string(p),
			fmt.Sprintf("%.1f%%", 100*reachSum/trials),
			fmt.Sprintf("%.1f%%", 100*reachMin),
			fmt.Sprintf("%.0f", timeSum/trials),
			fmt.Sprintf("%.0f", framesSum/trials))
	}
	tb.Note = "reach = stations holding the RREQ when the simulation ends"
	fmt.Println()
	fmt.Print(tb.String())
}

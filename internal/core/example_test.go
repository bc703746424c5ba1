package core_test

import (
	"fmt"

	"relmac/internal/core"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

// One clean BMMM multicast to two receivers: a single contention phase
// drives the whole batch — RTS/CTS per receiver, one data frame, then
// RAK/ACK per receiver (the paper's Figure 2, right side).
func ExampleNewBMMM() {
	factory := core.NewBMMM(mac.DefaultConfig())
	run := prototest.New(prototest.Star(2, 0.2, 0.7), 0.2,
		func(n int, e *sim.Env) sim.MAC { return factory(n, e) })
	run.Multicast(5, 0, []int{1, 2}, 100)
	run.Steps(40)
	fmt.Println(run.Trace.TxSeq())
	rec := run.Record(1)
	fmt.Printf("delivered %d/%d in %d contention phase(s)\n",
		rec.Delivered, len(rec.Dests), rec.Contentions)
	// Output:
	// RTS CTS RTS CTS DATA RAK ACK RAK ACK
	// delivered 2/2 in 1 contention phase(s)
}

// LAMM polls only the minimum cover set: with three co-located receivers
// a single RTS/CTS and RAK/ACK pair serves all of them (Theorem 3).
func ExampleNewLAMM() {
	factory := core.NewLAMM(mac.DefaultConfig())
	pts := prototest.Star(1, 0.2, 0.7)
	pts = append(pts, pts[1], pts[1]) // two more receivers at the same spot
	run := prototest.New(pts, 0.2,
		func(n int, e *sim.Env) sim.MAC { return factory(n, e) })
	run.Multicast(5, 0, []int{1, 2, 3}, 100)
	run.Steps(40)
	fmt.Println(run.Trace.TxSeq())
	fmt.Printf("delivered %d/%d\n", run.Record(1).Delivered, len(run.Record(1).Dests))
	// Output:
	// RTS CTS DATA RAK ACK
	// delivered 3/3
}

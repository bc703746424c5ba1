// Package obs is the simulation observability layer: structured event
// tracing, a lightweight stat registry, and the surfaces that attach to
// an engine run alongside the metrics collector.
//
// The simulator's evaluation questions — where do slots go? how many
// contention phases does a message burn? how long does a BMMM batch
// hold the medium? — all require seeing *inside* a run, not just the
// final aggregates. This package provides:
//
//   - Tracer: records the message events (submit, contention, frame-tx,
//     data-rx, round, complete, abort) into a bounded ring buffer,
//     exportable as JSONL or as Chrome trace-event JSON (one "thread"
//     per station) loadable at https://ui.perfetto.dev;
//   - Registry / Counter / Histogram: cheap named counters and
//     fixed-bucket histograms, fed live by Stats;
//   - Stats, DriftMonitor: per-protocol counters and histograms, and
//     the observed-versus-closed-form drift of §6;
//   - Ledger: the slot-accurate airtime ledger;
//   - Flight, Auditor: the per-message span trees and the protocol
//     conformance checks.
//
// Every surface is a sim.Observer: one Observe method that switches on
// the sim.EventKind, and one Kinds method naming the kinds it reads —
// the message events, plus the channel state for the Ledger and the
// service detail for Flight and Auditor. It attaches by being appended
// once to sim.Config (or experiments.RunConfig) Observers;
// experiments.Watch does this for every surface a command line names.
// The engine hands each event to each subscriber of its kind once, in
// list order, and a kind nobody reads costs one length check per event.
//
// Stats and DriftMonitor read per-message counts off the sim.Request;
// the Ledger, Flight and Auditor index their own state by ID-1.
package obs

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Event is one structured trace record, the flat form of a message
// event. Station is the acting station: the sender for
// submit/contention/frame-tx/round/complete/abort, the receiver for
// data-rx. Frame, Src, Dst and Dur are meaningful only for sim.EvFrameTx
// (Dur is the frame's airtime on the engine, in slots); Residual only
// for sim.EvRound (intended receivers still unserved after the round);
// Reason only for sim.EvAbort.
type Event struct {
	Kind     sim.EventKind
	Slot     sim.Slot
	Station  int
	MsgID    int64
	Frame    frames.Type
	Src      frames.Addr
	Dst      frames.Addr
	Dur      int
	Residual int
	Reason   sim.AbortReason
}

// growTo extends a per-message slice to hold message id, returning its
// index (msgIndex).
func growTo[T any](s *[]T, id int64) int {
	if n := int(id); n > len(*s) {
		*s = append(*s, make([]T, n-len(*s))...)
	}
	return msgIndex(len(*s), id)
}

// msgIndex is message id's index in a slice of length n, or -1.
func msgIndex(n int, id int64) int {
	if id < 1 || id > int64(n) {
		return -1
	}
	return int(id - 1)
}

// Package obs is the simulation observability layer: structured event
// tracing, a lightweight stat registry, and the glue that lets both
// attach to an engine run alongside the metrics collector.
//
// The simulator's evaluation questions — where do slots go? how many
// contention phases does a message burn? how long does a BMMM batch
// hold the medium? — all require seeing *inside* a run, not just the
// final aggregates. This package provides:
//
//   - Tracer: a sim.Observer recording structured events (submit,
//     contention, frame-tx, data-rx, complete, abort) into a bounded
//     ring buffer, exportable as JSONL or as Chrome trace-event JSON
//     (one "thread" per station) loadable at https://ui.perfetto.dev;
//   - Registry / Counter / Histogram: cheap named counters and
//     fixed-bucket histograms fed by the Stats observer (live, from the
//     engine's event stream);
//   - Stats: a sim.Observer that feeds a Registry as the run unfolds.
//
// Attach any combination by listing them in sim.Config.Observers (or
// experiments.RunConfig.Observers); the engine fans every event out in
// list order, and an empty list costs one length check per event.
package obs

import (
	"fmt"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// EventKind classifies trace events, mirroring the sim.Observer
// callbacks.
type EventKind uint8

// Event kinds, in lifecycle order.
const (
	EvSubmit EventKind = iota
	EvContention
	EvFrameTx
	EvDataRx
	EvRound
	EvComplete
	EvAbort
	numEventKinds
)

// NumEventKinds is the number of distinct event kinds.
const NumEventKinds = int(numEventKinds)

// String implements fmt.Stringer; the forms double as the JSONL "event"
// field, so they are part of the trace schema.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvContention:
		return "contention"
	case EvFrameTx:
		return "frame-tx"
	case EvDataRx:
		return "data-rx"
	case EvRound:
		return "round"
	case EvComplete:
		return "complete"
	case EvAbort:
		return "abort"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one structured trace record. Station is the acting station:
// the sender for submit/contention/frame-tx/round/complete/abort, the
// receiver for data-rx. Frame, Src, Dst and Dur are meaningful only for
// EvFrameTx (Dur is the frame's airtime in slots); Residual only for
// EvRound (intended receivers still unserved after the round); Reason
// only for EvAbort.
type Event struct {
	Kind     EventKind
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

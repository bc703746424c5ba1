package sim

import (
	"fmt"

	"relmac/internal/frames"
)

// EventKind names one engine event. Every hook sees the engine through
// one Observer.Observe method; the kind says which payload fields of the
// Event are set. A new event is a new kind on this list.
type EventKind uint8

// Event kinds, in four groups. An observer subscribes to the kinds it
// names in Kinds, whatever their group.
const (
	// Message events: what the MACs decided about a request — the feed
	// of the metrics collector.

	// EvSubmit: a request reached its MAC (Req), numbered by the engine.
	EvSubmit EventKind = iota
	// EvContention: a sender begins a CSMA/CA contention phase for Req —
	// the quantity plotted in Figure 9 and analysed in §6.
	EvContention
	// EvFrameTx: a transmission starts (Frame, Station is the sender,
	// Start/End its inclusive airtime).
	EvFrameTx
	// EvDataRx: Station decoded the DATA frame Frame, intended receiver
	// or mere overhearer alike; a counter of deliveries filters by the
	// request's Dests.
	EvDataRx
	// EvRound: a multi-round group protocol (BMMM/LAMM batch rounds, BMW
	// per-receiver rounds) finished one round of Req with Residual
	// intended receivers still unserved (Req.Residual is the one before).
	EvRound
	// EvComplete: the sending MAC considers Req served.
	EvComplete
	// EvAbort: the sending MAC abandoned Req for Reason.
	EvAbort

	// Service detail: the per-message events the flight recorder and
	// the conformance auditor add to the message events to rebuild a
	// message's span tree.

	// EvServiceStart: the MAC dequeued Req into service — the boundary
	// between queueing delay and service time.
	EvServiceStart
	// EvRoundStart: a group protocol opens round Round of Req, before
	// its contention, and will poll Polled receivers. Round is the
	// batch/attempt ordinal for BMMM/LAMM and the receiver ordinal for
	// BMW, which does not report retries of a receiver as new rounds.
	EvRoundStart
	// EvResponseDrop: Station discarded the scheduled response Frame
	// (CTS/ACK/NAK) that went stale before the medium let it go out.
	EvResponseDrop

	// Channel state: what the medium carried — the airtime ledger's
	// feed. An observer of EvSlot wants EvIdleSpan too, or it misses
	// the slots the event clock skips.

	// EvSlot: one simulated slot, after interference resolution and
	// before frame completions, so Airing includes transmissions ending
	// this very slot. Collided reports whether two or more signals
	// arrived at any single station (a lone arrival at a half-duplex
	// transmitter is deafness, not collision).
	EvSlot
	// EvIdleSpan: the event clock skipped the slots Start..End
	// (inclusive), in which nothing was in the air and every station
	// slept. It stands for one EvSlot with no airing and no collision
	// per slot of the span, which is what a Config.Reference run
	// delivers instead.
	EvIdleSpan

	// Receptions: per-receiver outcomes, which with EvFrameTx are a
	// channel trace.

	// EvRxOK: Station decoded Frame (at its final slot).
	EvRxOK
	// EvRxLost: Frame ended corrupted or erased at the in-range Station.
	EvRxLost

	numKinds
)

// KindSet is a set of event kinds, one bit per EventKind.
type KindSet uint16

// MessageKinds are the seven message events, submit through abort.
const MessageKinds KindSet = 1<<EvSubmit | 1<<EvContention | 1<<EvFrameTx |
	1<<EvDataRx | 1<<EvRound | 1<<EvComplete | 1<<EvAbort

// Kinds returns the set of the given kinds.
func Kinds(ks ...EventKind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k EventKind) bool { return s&(1<<k) != 0 }

// String implements fmt.Stringer. The names of the message events are
// the "event" field of the obs trace schema.
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
	case EvServiceStart:
		return "service-start"
	case EvRoundStart:
		return "round-start"
	case EvResponseDrop:
		return "response-drop"
	case EvSlot:
		return "slot"
	case EvIdleSpan:
		return "idle-span"
	case EvRxOK:
		return "rx-ok"
	case EvRxLost:
		return "rx-lost"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one engine event: a kind and the payload fields that kind
// sets (see the kinds); the rest are zero.
type Event struct {
	Kind   EventKind
	Reason AbortReason // EvAbort
	// Collided is EvSlot's collision flag.
	Collided bool
	// Slot is when the event fires (the first skipped slot for
	// EvIdleSpan).
	Slot Slot
	// Station is the acting station: the request's source for EvSubmit,
	// the reporting MAC's station for the Env.Report* events, the sender
	// for EvFrameTx, the receiver for EvDataRx, EvRxOK and EvRxLost.
	Station int
	Req     *Request
	// Frame lives until the end of the slot that completes its airtime
	// (DESIGN.md, "Frame lifetime"); an observer that keeps it copies it.
	Frame *frames.Frame
	// Start and End are the inclusive slot range of EvFrameTx's airtime
	// or of EvIdleSpan's skipped stretch.
	Start, End Slot
	Residual   int // EvRound
	Round      int // EvRoundStart
	Polled     int // EvRoundStart
	// Airing is EvSlot's list of transmissions in the air. It is the
	// engine's reused scratch buffer: copy what must outlive the call.
	Airing []AiringTx
}

// MsgID is the message the event concerns: its request's ID, else its
// frame's MsgID, else 0.
func (ev *Event) MsgID() int64 {
	switch {
	case ev.Req != nil:
		return ev.Req.ID
	case ev.Frame != nil:
		return ev.Frame.MsgID
	}
	return 0
}

// AiringTx describes one transmission in the air during a slot. Frame
// is the frame being carried; Start and End are the inclusive slot range
// of its airtime.
type AiringTx struct {
	Frame  *frames.Frame
	Sender int
	Start  Slot
	End    Slot
}

// Observer is the one engine hook: Observe receives every event of the
// kinds in Kinds, in engine order. The engine reads Kinds once, when it
// is built. It calls Observe from inside the slot loop, so
// implementations must be cheap, must not touch the engine PRNG or
// engine state and must not mutate the event, frames and requests they
// are shown (hookpure-checked). The event is the engine's scratch
// record, valid only during the call: copy what must outlive it.
type Observer interface {
	Observe(ev *Event)
	Kinds() KindSet
}

// subscribe builds the per-kind fan-out lists from obs, each in
// registration order, carved from one allocation.
func (e *Engine) subscribe(obs []Observer) {
	n := len(obs)
	buf := make([]Observer, len(e.subs)*n)
	for k := range e.subs {
		e.subs[k] = buf[k*n : k*n : (k+1)*n]
	}
	for _, o := range obs {
		ks := o.Kinds()
		for k := range e.subs {
			if ks.Has(EventKind(k)) {
				e.subs[k] = append(e.subs[k], o)
			}
		}
	}
}

// wants reports whether anyone subscribed to kind k. The per-receiver
// emits of completeSlot ask it before building their event: an inlined
// emit zeroes and fills its Event argument before its own check, which at
// ~17 receptions per slot costs measurably when nobody listens.
func (e *Engine) wants(k EventKind) bool { return len(e.subs[k]) != 0 }

// emit hands ev to every subscriber of its kind in order, charging the
// calls to PhaseObserver. It is the engine's only dispatch: a kind
// nobody subscribed to costs one (inlined) length check. The event is
// copied once into the engine's scratch record, and every subscriber
// gets a pointer to that, so no event allocates.
func (e *Engine) emit(ev Event) {
	if len(e.subs[ev.Kind]) != 0 {
		e.ev = ev
		e.fanOut(e.subs[ev.Kind])
	}
}

func (e *Engine) fanOut(subs []Observer) {
	e.dispatch()
	for _, o := range subs {
		o.Observe(&e.ev)
	}
	e.resume()
}

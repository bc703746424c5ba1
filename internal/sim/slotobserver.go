package sim

import "relmac/internal/frames"

// AiringTx describes one transmission in the air during a slot, as seen
// by a SlotObserver. Frame is the frame being carried; Start and End are
// the inclusive slot range of its airtime.
type AiringTx struct {
	Frame  *frames.Frame
	Sender int
	Start  Slot
	End    Slot
}

// SlotObserver receives the channel state of every simulated slot — the
// hook behind the airtime ledger (internal/obs): protocol-level Observer
// events say what the MACs decided, OnSlot says what the medium actually
// carried while they decided it.
//
// OnSlot fires after the slot's interference resolution and before frame
// completions, so the airing list includes transmissions that end this
// very slot. airing is the engine's reused scratch buffer: implementations
// must not retain it (copy what must survive the call). collided reports
// whether two or more signals arrived at any single station this slot —
// the physical overlap the capture model arbitrates (a lone arrival at a
// half-duplex transmitter is deafness, not collision).
//
// OnIdleSpan covers the slots the event clock skips: when the engine
// jumps over a stretch in which nothing happened — no transmission in
// the air, every station asleep — it reports the whole stretch (from and
// to inclusive) with one call. It must be exactly equivalent to
// OnSlot(t, nil, false) for every t in the span, which is what a
// per-slot (Config.Reference) run delivers instead.
//
// Implementations must be cheap, must not touch the engine PRNG or
// engine state (hookpure-checked) and must not mutate the frames they
// are shown; an empty Config.SlotObservers keeps the per-slot loop free
// of any callback cost.
type SlotObserver interface {
	OnSlot(now Slot, airing []AiringTx, collided bool)
	OnIdleSpan(from, to Slot)
}

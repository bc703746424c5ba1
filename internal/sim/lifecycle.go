package sim

import "relmac/internal/frames"

// LifecycleObserver receives the fine-grained per-message service events
// that the coarse Observer interface deliberately omits: when a request
// leaves the queue and enters service, when a group protocol opens a new
// round, and when a scheduled receiver response goes stale and is
// silently discarded. Together with Observer these events let a recorder
// reconstruct a message's full span tree — arrival, queueing, per-round
// contention, control/data airtime, retry, delivery — which is the feed
// for the flight recorder and the conformance auditor (internal/obs).
//
// The hook is separate from Observer so existing implementations stay
// untouched, and it is PRNG-neutral by construction: every callback is
// dispatched through Env.Report* methods that loop over
// Config.Lifecycles, so a run without a lifecycle observer is
// byte-identical to one that predates the hook. Implementations must be
// cheap, must not touch the engine PRNG and must not mutate the
// arguments they are shown (hookpure-checked).
type LifecycleObserver interface {
	// OnServiceStart fires when a MAC dequeues the request into service —
	// the boundary between queueing delay and service time.
	OnServiceStart(req *Request, now Slot)
	// OnRoundStart fires when a multi-round group protocol begins a
	// round, before the round's contention: round is the protocol's
	// 1-based round ordinal (the batch/attempt ordinal for BMMM/LAMM,
	// the receiver ordinal for BMW — which does not report retries of
	// the current receiver as new rounds), polled the number of
	// receivers the round will poll.
	OnRoundStart(req *Request, round, polled int, now Slot)
	// OnResponseDrop fires when a station discards a scheduled
	// receiver-side response (CTS/ACK/NAK) that went stale before the
	// medium allowed its transmission — otherwise-invisible protocol loss.
	OnResponseDrop(station int, f *frames.Frame, now Slot)
}

// Package mac provides the building blocks shared by every MAC protocol
// in this repository: the CSMA/CA contention (backoff) state machine of
// the paper's §2.1, FIFO service queues with deadline expiry, response
// scheduling for CTS/ACK/RAK/NAK turnaround, and common configuration.
// Carrier sense is not here: the medium's idle run behind the DIFS rule
// and the NAV (the "yield" state) are functions of the receptions the
// engine already resolves for every station, so the engine keeps both
// and answers them (sim.Env.IdleFor, sim.Env.Yielding and
// sim.Env.YieldingToOther); a MAC only names the DIFS length.
//
// Protocol implementations (internal/baseline/..., internal/core) embed
// these primitives and add their own sender/receiver state machines.
package mac

import (
	"math/rand"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Config collects the MAC parameters shared by all protocols so that
// protocol comparisons are apples-to-apples.
type Config struct {
	// CWMin and CWMax bound the contention window (slots). A fresh
	// contention phase draws a backoff in [0, CW); the window doubles on
	// Fail up to CWMax, as in 802.11 binary exponential backoff. The
	// paper leaves the window unspecified; see DESIGN.md.
	CWMin, CWMax int
	// RetryLimit caps the number of contention phases a MAC will spend
	// on one message before giving up. The paper's simulations rely on
	// the message Timeout instead; the limit is a safety net.
	RetryLimit int
}

// DefaultConfig returns the parameters used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		CWMin:      16,
		CWMax:      256,
		RetryLimit: 64,
	}
}

// backoffState enumerates the contention phase machine states.
type backoffState uint8

const (
	boInactive backoffState = iota
	boFirstSense
	boAwaitIdle
	boCounting
)

// Backoff is the CSMA/CA contention phase machine (paper §2.1):
//
//  1. a station wishing to transmit first listens to the medium;
//  2. if the medium is idle, transmit;
//  3. if busy, listen until idle, then back off a random number of slots
//     drawn from the contention window, freezing the countdown whenever
//     the medium turns busy again, and transmit when it expires.
//
// Call Begin to enter a contention phase, then Tick once per slot with
// the station's combined (physical + virtual) carrier sense; Tick returns
// true in the slot the station is cleared to transmit.
type Backoff struct {
	cwMin, cwMax int
	cw           int
	state        backoffState
	counter      int
	failed       bool
}

// NewBackoff builds a Backoff with the given window bounds.
func NewBackoff(cwMin, cwMax int) Backoff {
	if cwMin < 1 {
		cwMin = 1
	}
	if cwMax < cwMin {
		cwMax = cwMin
	}
	return Backoff{cwMin: cwMin, cwMax: cwMax, cw: cwMin}
}

// Begin enters a new contention phase. The contention window keeps its
// current (possibly widened) size; call Reset to shrink it back to CWMin
// after a success. A phase following a Fail never uses the
// transmit-immediately path: retransmissions always draw a random
// backoff, exactly so that two colliding stations desynchronise.
func (b *Backoff) Begin() {
	if b.failed {
		b.state = boAwaitIdle
		return
	}
	b.state = boFirstSense
}

// BeginDeferred enters a contention phase that always draws a random
// backoff, skipping the transmit-immediately path. IEEE 802.11 mandates
// this "post backoff" between consecutive transmissions of the same
// station — it is what makes each of BMW's n contention phases "lengthy
// in time" (paper §3) compared with BMMM's single one.
func (b *Backoff) BeginDeferred() { b.state = boAwaitIdle }

// Active reports whether a contention phase is in progress.
func (b *Backoff) Active() bool { return b.state != boInactive }

// Tick advances the machine by one slot. busy is the station's carrier
// sense for this slot (physical sense OR NAV yield). It returns true when
// the station may transmit in this slot, after which the machine is
// inactive until the next Begin.
func (b *Backoff) Tick(busy bool, rng *rand.Rand) bool {
	switch b.state {
	case boInactive:
		return false
	case boFirstSense:
		if !busy {
			b.state = boInactive
			return true
		}
		b.state = boAwaitIdle
		return false
	case boAwaitIdle:
		if busy {
			return false
		}
		b.counter = rng.Intn(b.cw)
		b.state = boCounting
		return b.tickCount()
	case boCounting:
		if busy {
			return false // frozen
		}
		return b.tickCount()
	}
	return false
}

func (b *Backoff) tickCount() bool {
	if b.counter == 0 {
		b.state = boInactive
		return true
	}
	b.counter--
	return false
}

// Fail doubles the contention window (bounded by CWMax); call it when a
// transmission attempt failed and a retry is coming.
func (b *Backoff) Fail() {
	b.failed = true
	b.cw *= 2
	if b.cw > b.cwMax {
		b.cw = b.cwMax
	}
}

// Reset shrinks the window to CWMin, clears the failure flag and aborts
// any in-progress phase.
func (b *Backoff) Reset() {
	b.cw = b.cwMin
	b.state = boInactive
	b.failed = false
}

// Window exposes the current contention window size (for tests and
// diagnostics).
func (b *Backoff) Window() int { return b.cw }

// DefaultDIFS is the sender inter-frame space in slots: a station may
// begin (or count down) contention only after this many consecutive idle
// slots (sim.Env.IdleFor), while receivers respond in the very next slot
// — the slotted form of 802.11's DIFS/SIFS priority. So 1-slot response
// turnarounds inside an exchange can never be pre-empted, which is what
// keeps neighbors from passing their contention phase in the middle of a
// BMMM batch (paper §4).
const DefaultDIFS = 2

// Queue is the FIFO of pending service requests at a station's MAC.
type Queue struct {
	reqs []*sim.Request
}

// Push appends a request.
func (q *Queue) Push(r *sim.Request) { q.reqs = append(q.reqs, r) }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.reqs) }

// Pop removes and returns the first request, or nil when empty. The
// remaining requests are shifted down rather than re-slicing from the
// front: queues are almost always a handful of entries, and keeping the
// backing array's origin lets Push reuse its capacity instead of
// allocating on nearly every arrival.
func (q *Queue) Pop() *sim.Request {
	if len(q.reqs) == 0 {
		return nil
	}
	r := q.reqs[0]
	copy(q.reqs, q.reqs[1:])
	q.reqs[len(q.reqs)-1] = nil
	q.reqs = q.reqs[:len(q.reqs)-1]
	return r
}

// DropExpired removes every queued request whose deadline has passed,
// invoking onAbort for each (may be nil).
func (q *Queue) DropExpired(now sim.Slot, onAbort func(*sim.Request)) {
	kept := q.reqs[:0]
	for _, r := range q.reqs {
		if r.Expired(now) {
			if onAbort != nil {
				onAbort(r)
			}
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(q.reqs); i++ {
		q.reqs[i] = nil
	}
	q.reqs = kept
}

// Responder schedules receiver-side control responses (CTS, ACK, NAK)
// for transmission in a future slot. The paper's receivers reply a SIFS
// after the eliciting frame; in the slotted model that is the next slot.
//
// Scheduled frames are held by value. Each entry's Missing list lives in
// storage the entry owns and reuses; a removed entry is parked just past
// the end with its storage, so no two entries ever share a backing array.
type Responder struct {
	q []response
}

// response is one scheduled frame.
type response struct {
	when  sim.Slot
	frame frames.Frame
}

// ScheduleAt queues a copy of *f for transmission at slot t and returns
// the queued frame, valid until the Responder next changes. Its Missing
// is f.Missing copied into the entry's own storage, so a caller may
// append to it instead of building a list of its own. Multiple frames
// may be scheduled; Due returns them in schedule order.
func (r *Responder) ScheduleAt(t sim.Slot, f *frames.Frame) *frames.Frame {
	if len(r.q) == cap(r.q) {
		r.q = append(r.q, response{})
	} else {
		r.q = r.q[:len(r.q)+1]
	}
	e := &r.q[len(r.q)-1]
	missing := append(e.frame.Missing[:0], f.Missing...)
	e.when, e.frame = t, *f
	e.frame.Missing = missing
	return &e.frame
}

// Due fills out with the frame scheduled for the given slot, removing it,
// and reports whether there was one. out's Missing then shares the
// removed entry's storage, which the next ScheduleAt reuses: a station
// schedules nothing while its response is on the air, because a
// transmitting station decodes nothing. Frames scheduled for earlier
// slots that were never sent (station busy) are discarded — a stale
// CTS/ACK is worse than none — and, when dropped is non-nil, handed to it
// first, so the responses that silently died waiting for the medium stay
// visible.
func (r *Responder) Due(now sim.Slot, dropped func(*frames.Frame), out *frames.Frame) bool {
	for i := 0; i < len(r.q); {
		switch {
		case r.q[i].when < now:
			if dropped != nil {
				dropped(&r.q[i].frame)
			}
			r.drop(i)
		case r.q[i].when == now:
			*out = r.q[i].frame
			r.drop(i)
			return true
		default:
			i++
		}
	}
	return false
}

// Pending reports whether any response is scheduled at or after now.
func (r *Responder) Pending(now sim.Slot) bool {
	for i := range r.q {
		if r.q[i].when >= now {
			return true
		}
	}
	return false
}

// CancelIf removes every scheduled response matching the predicate and
// returns how many were cancelled. BSMA receivers use this to withdraw a
// pending NAK when the awaited data frame finally arrives.
func (r *Responder) CancelIf(pred func(*frames.Frame) bool) int {
	n := 0
	for i := 0; i < len(r.q); {
		if pred(&r.q[i].frame) {
			r.drop(i)
			n++
			continue
		}
		i++
	}
	return n
}

// Clear drops all scheduled responses.
func (r *Responder) Clear() { r.q = r.q[:0] }

// drop removes entry i, keeping the others in order, and parks it with
// its Missing storage just past the end.
func (r *Responder) drop(i int) {
	last := len(r.q) - 1
	if i != last {
		e := r.q[i]
		copy(r.q[i:], r.q[i+1:])
		r.q[last] = e
	}
	r.q = r.q[:last]
}

// Package dcf implements the IEEE 802.11 Distributed Coordination
// Function substrate that every protocol in the paper builds on:
//
//   - Station, a sim.MAC chassis providing CSMA/CA contention over the
//     engine's carrier sense (the DIFS idle run and the NAV-based yield
//     of the "receiver's protocol" of Figure 3, sim.Env.IdleFor and
//     sim.Env.Yielding), FIFO queues with upper-layer timeouts, and the
//     sender skeleton every protocol shares: contention, the wait for each
//     response window, retry with binary exponential backoff and give-up;
//   - the standard RTS/CTS/DATA/ACK unicast exchange;
//   - the plain, unreliable 802.11 multicast (contend, transmit the data
//     frame once, no recovery — §2.2 of the paper);
//   - the Multicaster extension point through which the Tang–Gerla, BSMA,
//     KK-Leader, BMW, BMMM and LAMM group-service state machines plug in.
//
// All stations in a simulation run the same composite MAC: unicast
// requests are always served by the DCF exchange; multicast/broadcast
// requests are served by the protocol under study.
package dcf

import (
	"relmac/internal/frames"
	"relmac/internal/mac"
	"relmac/internal/sim"
)

// Multicaster is the protocol-specific half of a sending station. Every
// protocol in the paper has the same sender shape (§2.1, Figure 3): a
// CSMA/CA contention phase, then a control/data exchange with fixed
// response windows, and after a failed exchange a widened backoff and
// another try. Station runs that skeleton — the contention, the wait for
// each response window, the attempt count, retry and give-up — and asks
// the Multicaster only for what differs: which frame to send and how to
// read the responses. A Multicaster instance is per-station and stateful.
type Multicaster interface {
	// Begin takes a request naming at least one receiver into service
	// and resets the per-request state. (A request naming none completes
	// in the station without reaching the Multicaster.) The station opens
	// the first contention phase when Begin returns.
	Begin(st *Station, env *sim.Env, req *sim.Request)
	// Won is called in the slot the station wins the medium and returns
	// the exchange's opening frame, built with st.Send.
	Won(st *Station, env *sim.Env) *frames.Frame
	// Next is called at the decision slot set through st.WaitUntil — at
	// the next slot the station may transmit, if none was set. It returns
	// the exchange's next frame, built with st.Send, or nil once it has
	// ended the exchange with st.Retry, st.NextRound or st.FinishRequest.
	Next(st *Station, env *sim.Env) *frames.Frame
	// OnResponse receives every frame addressed to this station that
	// carries the MsgID of the request in service: the CTS, ACK and NAK
	// replies. They go nowhere else.
	OnResponse(st *Station, env *sim.Env, f *frames.Frame)
	// OnDeliver is the receiver side. It is called for every other frame
	// the station decodes in a role (rx non-zero: addressed to it or
	// naming it in the group), after the station's data-log bookkeeping.
	// Overheard frames stop at the engine's NAV and never reach it.
	// Responses are scheduled through st.Respond. f, like the frame
	// OnResponse receives, is its sender's and must not be kept.
	OnDeliver(st *Station, env *sim.Env, f *frames.Frame, rx sim.Rx)
}

// RoundOpener is implemented by a Multicaster that prepares every round
// of a request before its contention phase opens — the first, each retry
// and each later round. BMMM and LAMM choose the round's poll set there
// and report the round start.
type RoundOpener interface {
	OpenRound(st *Station, env *sim.Env)
}

// Station is the per-node composite MAC. It implements sim.MAC.
type Station struct {
	cfg  mac.Config
	addr frames.Addr

	backoff mac.Backoff
	resp    mac.Responder
	queue   mac.Queue
	// out is the frame the station transmits and group the storage of
	// its Group list: Send and the Responder fill them, and they live
	// until the end of the slot that completes the frame's airtime
	// (DESIGN.md, "Frame lifetime"). A station starts no frame while it
	// is on the air, so one of each is enough.
	out   frames.Frame
	group []frames.Addr

	cur *sim.Request
	mc  Multicaster
	uni uniFSM
	// attempts counts the contention phases the request in service has
	// won; Retry gives the request up once it reaches RetryLimit.
	attempts int
	// nextAt is the next decision slot of the request in service: while
	// no contention phase runs, Tick does not call the sender before it.
	nextAt sim.Slot

	// contended marks that the current request has already been through
	// a contention phase: all later phases must draw a random backoff
	// (the 802.11 post-backoff rule; see Backoff.BeginDeferred).
	contended bool
	// dropHook and abortHook are the stale-response and deadline-drop
	// callbacks handed to Responder.Due and Queue.DropExpired every
	// Tick. The env a station sees is stable for its lifetime, so they
	// are built once, on the first Tick, instead of a fresh capture per
	// tick.
	dropHook  func(*frames.Frame)
	abortHook func(*sim.Request)
	// lastData is the receiver data log behind HasData: one entry per
	// sender heard, holding the message ID of the last DATA frame decoded
	// from it as a group member. A linear scan of this short slice
	// measured faster than a map.
	lastData []dataEntry
}

// dataEntry is one sender's entry in the receiver data log.
type dataEntry struct {
	src frames.Addr
	id  int64
}

// NewStation builds a Station for the given node using mc for group
// service. cfg fields at zero values are replaced by defaults.
func NewStation(node int, cfg mac.Config, mc Multicaster) *Station {
	if cfg.CWMin == 0 {
		cfg = mac.DefaultConfig()
	}
	if mc == nil {
		mc = Plain{}
	}
	return &Station{
		cfg:     cfg,
		addr:    frames.Addr(node),
		backoff: mac.NewBackoff(cfg.CWMin, cfg.CWMax),
		mc:      mc,
	}
}

// Addr returns the station's MAC address.
func (st *Station) Addr() frames.Addr { return st.addr }

// Current returns the request in service, if any.
func (st *Station) Current() *sim.Request { return st.cur }

// QueueLen returns the number of requests waiting behind the current one.
func (st *Station) QueueLen() int { return st.queue.Len() }

// Submit implements sim.MAC.
func (st *Station) Submit(env *sim.Env, req *sim.Request) {
	st.queue.Push(req)
}

// Tick implements sim.MAC.
func (st *Station) Tick(env *sim.Env) *frames.Frame {
	now := env.Now()

	if env.Transmitting() {
		return nil
	}
	if st.dropHook == nil {
		st.dropHook = func(f *frames.Frame) { env.ReportResponseDrop(f) }
		st.abortHook = func(r *sim.Request) { env.ReportAbort(r, sim.AbortDeadline) }
	}
	// Receiver-role responses have SIFS priority over everything; stale
	// ones are reported as they are discarded.
	if st.resp.Due(now, st.dropHook, &st.out) {
		return &st.out
	}
	// Queue maintenance.
	st.queue.DropExpired(now, st.abortHook)
	if st.cur != nil && st.cur.Expired(now) {
		st.abortCurrent(env)
	}
	if st.cur == nil {
		st.cur = st.queue.Pop()
		if st.cur != nil {
			st.beginService(env)
		}
	}
	if st.cur == nil {
		return nil
	}
	// The sender skeleton: contend until the medium is won, then wait
	// for each decision slot the exchange asks for.
	if st.backoff.Active() {
		if !st.contentionTick(env) {
			return nil
		}
		st.attempts++
		st.nextAt = 0
		return st.sender().Won(st, env)
	}
	if now < st.nextAt {
		return nil
	}
	return st.sender().Next(st, env)
}

// sender returns the state machine serving the request in service: the
// DCF unicast exchange or the protocol's group service.
func (st *Station) sender() Multicaster {
	if st.cur.Kind == sim.Unicast {
		return &st.uni
	}
	return st.mc
}

// Quiescent implements sim.Sleeper: the station can be skipped while it
// has nothing in service, nothing queued and no scheduled response. This
// covers every protocol in the repository — Multicasters are driven only
// while a request is in service (Won, Next) or a frame arrives
// (OnResponse, OnDeliver), and their receiver-side obligations all flow
// through the Responder, so station-level emptiness implies
// protocol-level idleness.
// A quiescent Tick does nothing and draws nothing from the PRNG —
// backoff draws happen strictly inside contention, which requires a
// request in service — and the idle run behind the DIFS rule is the
// engine's (Env.IdleFor), so a woken station has nothing to restore.
func (st *Station) Quiescent(after sim.Slot) bool {
	return st.cur == nil && st.queue.Len() == 0 && !st.resp.Pending(after)
}

func (st *Station) beginService(env *sim.Env) {
	env.ReportServiceStart(st.cur)
	st.backoff.Reset()
	st.contended = false
	st.attempts = 0
	if len(st.cur.Dests) == 0 {
		// Nobody to reach: served as it starts.
		st.FinishRequest(env, true)
		return
	}
	st.sender().Begin(st, env, st.cur)
	st.contend(env)
}

func (st *Station) abortCurrent(env *sim.Env) {
	env.ReportAbort(st.cur, sim.AbortDeadline)
	st.cur = nil
	st.backoff.Reset()
}

// FinishRequest ends the request in service. ok distinguishes
// sender-perceived success from giving up; !ok is reported as retry
// exhaustion, the only way a sender gives up on its own (deadline aborts
// are the station's job).
func (st *Station) FinishRequest(env *sim.Env, ok bool) {
	if st.cur == nil {
		return
	}
	if ok {
		env.ReportComplete(st.cur)
	} else {
		env.ReportAbort(st.cur, sim.AbortRetries)
	}
	st.cur = nil
	st.backoff.Reset()
}

// contend opens a CSMA/CA contention phase for the request in service
// and reports it to the observer (the quantity of Figure 9). A
// RoundOpener prepares its round first. The first phase of a fresh
// message may transmit immediately on an idle medium (CSMA/CA step 2);
// every later phase — a retry, BMW's next per-receiver round, a later
// BMMM batch — draws a random backoff, per the 802.11 post-backoff rule.
func (st *Station) contend(env *sim.Env) {
	if o, ok := st.sender().(RoundOpener); ok {
		o.OpenRound(st, env)
	}
	if st.contended {
		st.backoff.BeginDeferred()
	} else {
		st.backoff.Begin()
	}
	st.contended = true
	env.ReportContention(st.cur)
}

// contentionTick advances the backoff machine with the station's
// combined carrier sense and returns true when the station is cleared to
// transmit in this slot. A medium idle for DIFS is idle now, so the
// idle-run test covers physical carrier sense.
func (st *Station) contentionTick(env *sim.Env) bool {
	unavailable := env.Yielding() || !env.IdleFor(mac.DefaultDIFS)
	return st.backoff.Tick(unavailable, env.Rand())
}

// Retry ends a failed exchange. A request that has won RetryLimit
// contention phases is given up and reported as retry exhaustion;
// otherwise the window widens and a new contention phase opens.
func (st *Station) Retry(env *sim.Env) {
	if st.Exhausted() {
		st.FinishRequest(env, false)
		return
	}
	st.backoff.Fail()
	st.contend(env)
}

// NextRound opens the contention phase of the request's next round
// without widening the window: a round that ended is not a failure.
func (st *Station) NextRound(env *sim.Env) { st.contend(env) }

// Exhausted reports whether the request in service has won RetryLimit
// contention phases.
func (st *Station) Exhausted() bool { return st.attempts >= st.cfg.RetryLimit }

// Attempts returns how many contention phases the request in service
// has won.
func (st *Station) Attempts() int { return st.attempts }

// WaitUntil sets the next decision slot of the request in service: Tick
// calls the sender's Next no earlier than at.
func (st *Station) WaitUntil(at sim.Slot) { st.nextAt = at }

// Send fills the station's outgoing frame with a copy of *f and returns
// it, for Won and Next to hand to the engine. A non-nil group becomes
// the frame's Group, the station IDs written as addresses into the
// station's own storage.
func (st *Station) Send(f *frames.Frame, group []int) *frames.Frame {
	st.out = *f
	if group != nil {
		st.group = groupAddrs(st.group, group)
		st.out.Group = st.group
	}
	return &st.out
}

// Respond schedules a copy of a receiver-side response frame for the
// next slot (the slotted-model equivalent of a SIFS turnaround) and
// returns the scheduled frame (mac.Responder.ScheduleAt).
func (st *Station) Respond(env *sim.Env, f *frames.Frame) *frames.Frame {
	return st.RespondAt(env.Now()+1, f)
}

// RespondAt schedules a copy of a receiver-side frame for an arbitrary
// future slot. BSMA receivers use it to arm a NAK at their WAIT_FOR_DATA
// deadline.
func (st *Station) RespondAt(at sim.Slot, f *frames.Frame) *frames.Frame {
	f.Src = st.addr
	return st.resp.ScheduleAt(at, f)
}

// CancelResponses withdraws scheduled responses matching the predicate
// and returns how many were cancelled.
func (st *Station) CancelResponses(pred func(*frames.Frame) bool) int {
	return st.resp.CancelIf(pred)
}

// CanRespond applies the paper's "not in yield state" receiver rule to a
// frame eliciting a response: a station answers unless it holds an active
// reservation belonging to a DIFFERENT exchange. Reservations of the same
// exchange never block a response — a BMMM batch receiver must answer its
// RTS/RAK even though the batch's own first RTS reserved the medium past
// that point. The reservations are the engine's (sim.Env.YieldingToOther).
func (st *Station) CanRespond(env *sim.Env, f *frames.Frame) bool {
	return !env.YieldingToOther(f.MsgID)
}

// HasData reports whether this station already holds the data that f
// (an RTS or RAK polling it) asks about: whether its last DATA frame
// decoded as a group member from f.Src carried f.MsgID. One entry per
// sender is exact because a sender serves one request at a time and
// never returns to a request it has left, so any earlier message of
// f.Src can no longer be polled. The log is bounded by the number of
// senders heard, not by the length of the run.
func (st *Station) HasData(f *frames.Frame) bool {
	for _, e := range st.lastData {
		if e.src == f.Src {
			return e.id == f.MsgID
		}
	}
	return false
}

// logData records the member DATA frame f as its sender's latest. The
// senders a station decodes are its neighbours, so the log is sized for
// all of them on first use.
func (st *Station) logData(env *sim.Env, f *frames.Frame) {
	for i := range st.lastData {
		if st.lastData[i].src == f.Src {
			st.lastData[i].id = f.MsgID
			return
		}
	}
	if st.lastData == nil {
		st.lastData = make([]dataEntry, 0, len(env.Topo().Neighbors(int(st.addr))))
	}
	st.lastData = append(st.lastData, dataEntry{f.Src, f.MsgID})
}

// Deliver implements sim.MAC. rx is the station's role in the frame,
// computed by the engine.
func (st *Station) Deliver(env *sim.Env, f *frames.Frame, rx sim.Rx) {
	addressed := rx&sim.RxAddressed != 0
	if f.Type == frames.Data && rx&sim.RxMember != 0 {
		// Group DATA for this station: log it for HasData.
		st.logData(env, f)
	}
	if addressed && st.cur != nil && f.MsgID == st.cur.ID {
		// A reply to the request in service: only its sender reads it.
		st.sender().OnResponse(st, env, f)
		return
	}
	st.uni.OnDeliver(st, env, f, rx)
	st.mc.OnDeliver(st, env, f, rx)
}

// Package dcf implements the IEEE 802.11 Distributed Coordination
// Function substrate that every protocol in the paper builds on:
//
//   - Station, a sim.MAC chassis providing CSMA/CA contention with
//     DIFS-style idle sensing, NAV-based yield ("receiver's protocol" of
//     Figure 3), FIFO queues with upper-layer timeouts, and the standard
//     RTS/CTS/DATA/ACK unicast exchange with retries;
//   - the plain, unreliable 802.11 multicast (contend, transmit the data
//     frame once, no recovery — §2.2 of the paper);
//   - the Multicaster extension point through which the Tang–Gerla, BSMA,
//     BMW, BMMM and LAMM group-service state machines plug in.
//
// All stations in a simulation run the same composite MAC: unicast
// requests are always served by the DCF exchange; multicast/broadcast
// requests are served by the protocol under study.
package dcf

import (
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// Multicaster is the group-service state machine of a specific multicast
// MAC protocol. A Multicaster instance is per-station and stateful.
type Multicaster interface {
	// Begin takes a group request into service. Implementations must
	// fully reset their state.
	Begin(st *Station, env *sim.Env, req *sim.Request)
	// SenderTick drives the sender side. It is called once per slot
	// while a group request is in service and the station is able to
	// transmit (not mid-frame, no response due). It may return a frame
	// to put on the air. Completion is signalled via st.FinishRequest.
	SenderTick(st *Station, env *sim.Env) *frames.Frame
	// OnDeliver is called for every frame the station decodes in a role
	// (rx non-zero: addressed to it or naming it in the group) — sender
	// and receiver roles alike — after the station's generic NAV and
	// unicast processing. Overheard frames stop at the NAV and never
	// reach it. Receiver-side responses are scheduled through st.Respond.
	OnDeliver(st *Station, env *sim.Env, f *frames.Frame, rx sim.Rx)
}

// Station is the per-node composite MAC. It implements sim.MAC.
type Station struct {
	cfg  mac.Config
	difs int
	addr frames.Addr

	nav     mac.NAVTable
	hist    mac.ChannelHistory
	backoff *mac.Backoff
	resp    mac.Responder
	queue   mac.Queue

	cur *sim.Request
	mc  Multicaster
	uni uniFSM

	physBusy bool
	// contended marks that the current request has already been through
	// a contention phase: all later phases must draw a random backoff
	// (the 802.11 post-backoff rule; see Backoff.BeginDeferred).
	contended bool
	// dropHook is the lazily built stale-response callback handed to
	// Responder.DueReport when a lifecycle observer is attached; caching
	// it keeps the enabled path free of a per-tick closure allocation.
	dropHook func(*frames.Frame)
	// abortHook is the cached deadline-drop callback handed to
	// Queue.DropExpired every Tick — same idiom as dropHook: the env a
	// station sees is stable for its lifetime, so one closure serves
	// every slot instead of allocating a fresh capture per tick.
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
		mc = &Plain{}
	}
	return &Station{
		cfg:     cfg,
		difs:    mac.DefaultDIFS,
		addr:    frames.Addr(node),
		backoff: mac.NewBackoff(cfg.CWMin, cfg.CWMax),
		mc:      mc,
	}
}

// Addr returns the station's MAC address.
func (st *Station) Addr() frames.Addr { return st.addr }

// Config returns the MAC configuration.
func (st *Station) Config() mac.Config { return st.cfg }

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
	st.physBusy = env.CarrierBusy()
	st.hist.Observe(st.physBusy)
	now := env.Now()

	if env.Transmitting() {
		return nil
	}
	// Receiver-role responses have SIFS priority over everything.
	if f := st.dueResponse(env, now); f != nil {
		return f
	}
	// Queue maintenance.
	if st.abortHook == nil {
		st.abortHook = func(r *sim.Request) { env.ReportAbort(r, sim.AbortDeadline) }
	}
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
	if st.cur.Kind == sim.Unicast {
		return st.uni.tick(st, env)
	}
	return st.mc.SenderTick(st, env)
}

// Quiescent implements sim.Sleeper: the station can be skipped while it
// has nothing in service, nothing queued and no scheduled response. This
// covers every protocol in the repository — Multicasters are driven only
// while a request is in service (SenderTick) or a frame arrives
// (OnDeliver), and their receiver-side obligations all flow through the
// Responder, so station-level emptiness implies protocol-level idleness.
// A quiescent Tick only samples carrier sense into the channel history,
// which Wake reconstructs, and draws nothing from the PRNG — backoff
// draws happen strictly inside contention, which requires a request in
// service.
func (st *Station) Quiescent(after sim.Slot) bool {
	return st.cur == nil && st.queue.Len() == 0 && !st.resp.Pending(after)
}

// Wake implements sim.Sleeper: restore the idle streak the channel
// history would hold had it observed every skipped slot.
func (st *Station) Wake(idleRun int) { st.hist.Restore(idleRun) }

// WakeExtend implements sim.Sleeper: every skipped slot was idle, so
// the retained streak simply lengthens by the skipped count — the form
// the engine uses when the absolute idle run may include slots this
// station's history legitimately never observed (crash windows).
func (st *Station) WakeExtend(skipped int) { st.hist.Extend(skipped) }

// dueResponse pulls the response due this slot. With a lifecycle
// observer attached, stale responses are reported as they are discarded;
// without one the pre-hook fast path runs unchanged.
func (st *Station) dueResponse(env *sim.Env, now sim.Slot) *frames.Frame {
	if !env.LifecycleOn() {
		return st.resp.Due(now)
	}
	if st.dropHook == nil {
		st.dropHook = func(f *frames.Frame) { env.ReportResponseDrop(f) }
	}
	return st.resp.DueReport(now, st.dropHook)
}

func (st *Station) beginService(env *sim.Env) {
	env.ReportServiceStart(st.cur)
	st.backoff.Reset()
	st.contended = false
	if st.cur.Kind == sim.Unicast {
		st.uni.begin(st, env, st.cur)
		return
	}
	st.mc.Begin(st, env, st.cur)
}

func (st *Station) abortCurrent(env *sim.Env) {
	env.ReportAbort(st.cur, sim.AbortDeadline)
	st.cur = nil
	st.backoff.Reset()
}

// FinishRequest is called when the current request is finished; Multicasters
// call it for group requests. ok distinguishes sender-perceived success
// from giving up; !ok is reported as retry exhaustion, the only way a
// protocol state machine gives up on its own (deadline aborts are the
// station's job).
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

// StartContention begins a CSMA/CA contention phase for the current
// request and reports it to the observer (the quantity of Figure 9). The
// first phase of a fresh message may transmit immediately on an idle
// medium (CSMA/CA step 2); every subsequent phase — a retry, BMW's next
// per-receiver round, a later BMMM batch — draws a random backoff, per
// the 802.11 post-backoff rule.
func (st *Station) StartContention(env *sim.Env) {
	if st.contended {
		st.backoff.BeginDeferred()
	} else {
		st.backoff.Begin()
	}
	st.contended = true
	if st.cur != nil {
		env.ReportContention(st.cur)
	}
}

// ContentionTick advances the backoff machine with the station's combined
// carrier sense and returns true when the station is cleared to transmit
// in this slot.
func (st *Station) ContentionTick(env *sim.Env) bool {
	now := env.Now()
	unavailable := st.physBusy || st.nav.Yielding(now) || !st.hist.IdleFor(st.difs)
	return st.backoff.Tick(unavailable, env.Rand())
}

// ContentionFail widens the contention window after a failed attempt.
func (st *Station) ContentionFail() { st.backoff.Fail() }

// Respond schedules a receiver-side response frame for the next slot
// (the slotted-model equivalent of a SIFS turnaround).
func (st *Station) Respond(env *sim.Env, f *frames.Frame) {
	f.Src = st.addr
	st.resp.ScheduleAt(env.Now()+1, f)
}

// RespondAt schedules a receiver-side frame for an arbitrary future slot.
// BSMA receivers use it to arm a NAK at their WAIT_FOR_DATA deadline.
func (st *Station) RespondAt(at sim.Slot, f *frames.Frame) {
	f.Src = st.addr
	st.resp.ScheduleAt(at, f)
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
// that point.
func (st *Station) CanRespond(f *frames.Frame, now sim.Slot) bool {
	return !st.nav.YieldingToOther(f.MsgID, now)
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

// logData records the member DATA frame f as its sender's latest.
func (st *Station) logData(f *frames.Frame) {
	for i := range st.lastData {
		if st.lastData[i].src == f.Src {
			st.lastData[i].id = f.MsgID
			return
		}
	}
	st.lastData = append(st.lastData, dataEntry{f.Src, f.MsgID})
}

// Yielding reports whether the station holds any active reservation.
func (st *Station) Yielding(now sim.Slot) bool { return st.nav.Yielding(now) }

// yieldDuration returns how long an overheard frame silences this
// station. Normally that is the frame's full Duration. With the
// location-aware exposed-terminal optimisation enabled (the future-work
// direction of the paper's §8), a station that overhears an RTS whose
// data receivers are all beyond its own transmission range knows its
// transmissions cannot corrupt their receptions; it reserves only the
// CTS turnaround (protecting the RTS sender's reception of the CTS) and
// afterwards relies on physical carrier sense. The residual risk — a
// collision with the exchange's closing ACKs at the sender — is the
// classic exposed-terminal trade-off.
func (st *Station) yieldDuration(env *sim.Env, f *frames.Frame) int {
	if !st.cfg.ExposedTerminalOpt || f.Type != frames.RTS {
		return f.Duration
	}
	tp := env.Topo()
	me := env.Pos()
	if f.Group == nil {
		if nearReceiver(tp, me, f.Dst) {
			return f.Duration
		}
	} else {
		for _, a := range f.Group {
			if nearReceiver(tp, me, a) {
				return f.Duration
			}
		}
	}
	ctsWindow := st.cfg.Timing.Control + 1
	if ctsWindow > f.Duration {
		return f.Duration
	}
	return ctsWindow
}

// nearReceiver reports whether address a names a station within me's
// transmission range; unknown addresses count as near so the exposed-
// terminal optimisation stays conservative. A plain function (not a
// closure over tp/me) so the overhear path allocates nothing.
func nearReceiver(tp *topo.Topology, me geom.Point, a frames.Addr) bool {
	if a < 0 || int(a) >= tp.N() {
		return true // unknown receiver: stay conservative
	}
	return me.InRange(tp.Pos(int(a)), tp.Radius())
}

// Deliver implements sim.MAC. rx is the station's role in the frame,
// computed by the engine.
func (st *Station) Deliver(env *sim.Env, f *frames.Frame, rx sim.Rx) {
	now := env.Now()
	addressed := rx&sim.RxAddressed != 0
	switch {
	case f.Type == frames.Data && rx&sim.RxMember != 0:
		// Group DATA for this station: log it for HasData. Like every
		// frame directed at this station, it never raises the NAV.
		st.logData(f)
	case addressed:
		// Frames directed at this station never raise its NAV. Note that
		// being addressed does NOT by itself clear an existing foreign
		// reservation: a station yielding to another exchange refuses to
		// answer (paper, Figure 3) until that reservation expires.
	case f.Duration > 0:
		// Receiver's protocol (Figure 3): yield for the Duration carried
		// in a frame not intended for this station.
		st.nav.ObserveFor(f.MsgID, now, st.yieldDuration(env, f))
	}
	if rx == 0 {
		// A pure overhear: the NAV is all it can change.
		return
	}

	// Standard DCF unicast behaviour for non-group frames.
	if f.Group == nil {
		switch f.Type {
		case frames.RTS:
			if addressed && st.CanRespond(f, now) {
				st.Respond(env, &frames.Frame{
					Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
					Duration: f.Duration - st.cfg.Timing.Control,
				})
			}
		case frames.Data:
			if addressed {
				st.Respond(env, &frames.Frame{
					Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
				})
			}
		case frames.CTS, frames.ACK:
			if addressed {
				st.uni.onControl(f)
			}
		default:
			// RAK and NAK are not part of the DCF unicast exchange;
			// ignoring them is a decision, not an oversight.
		}
	}

	st.mc.OnDeliver(st, env, f, rx)
}

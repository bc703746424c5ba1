package sim

import (
	"math/rand"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/topo"
)

// EnvOf returns the Env of the given station. It exists for tests that
// need to drive MAC components outside a full simulation; protocol code
// receives its Env through the MAC callbacks.
func (e *Engine) EnvOf(node int) *Env { return &e.envs[node] }

// Env is the window through which a MAC state machine observes and
// reports to the simulation. One Env exists per station; the engine
// passes a pointer to it into every MAC callback. Envs must not be
// retained across simulations.
type Env struct {
	engine *Engine
	node   int
}

// Node returns the station ID this Env belongs to.
func (e *Env) Node() int { return e.node }

// Now returns the current slot.
func (e *Env) Now() Slot { return e.engine.now }

// Timing returns the frame airtimes in use.
func (e *Env) Timing() frames.Timing { return e.engine.timing }

// Topo returns the network topology (positions, neighbor tables). The
// paper assumes stations know their neighbors through beacon exchange and,
// for LAMM, their locations via GPS-carrying beacons; exposing the
// topology snapshot models exactly that knowledge.
func (e *Env) Topo() *topo.Topology { return e.engine.topo }

// Neighbors returns the station's neighbor IDs (shared slice; read only).
func (e *Env) Neighbors() []int { return e.engine.topo.Neighbors(e.node) }

// Pos returns the station's own location.
func (e *Env) Pos() geom.Point { return e.engine.topo.Pos(e.node) }

// CarrierBusy reports whether the station's physical carrier sense finds
// the medium busy: some other station's transmission that began in an
// earlier slot is still in the air within range.
func (e *Env) CarrierBusy() bool { return e.engine.carrierBusy(e.node) }

// IdleFor reports whether the station has sensed the medium idle for at
// least n consecutive slots, up to and including the current one. Slots
// the station spent down do not count and do not end the run. This is
// the DIFS rule of CSMA/CA (§2.1): a sender may contend only after the
// medium has been idle for DIFS, while responders answer in the very
// next slot. The engine keeps the run for every station, asleep or not.
func (e *Env) IdleFor(n int) bool { return e.engine.idleRun(e.node) >= Slot(n) }

// Yielding reports whether the station's NAV holds a reservation
// covering the current slot: its virtual carrier sense. The engine
// raises the NAV for every clean frame announcing a Duration that is not
// directed at the station — not addressed to it, and not a DATA frame
// naming it in the group (the receiver's protocol of Figure 3) — so a
// MAC never sees the frames behind it.
func (e *Env) Yielding() bool { return e.engine.nav[e.node].yielding(e.engine.now) }

// YieldingToOther reports whether the station's NAV holds a reservation
// covering the current slot that belongs to an exchange other than
// msgID: the paper's "in yield state" test for a station invited to
// answer a frame of exchange msgID. Reservations of the same exchange
// never block — a BMMM batch receiver must answer its RTS/RAK even
// though the batch's own first RTS reserved the medium past that point.
func (e *Env) YieldingToOther(msgID int64) bool {
	return e.engine.nav[e.node].yieldingToOther(msgID, e.engine.now)
}

// Transmitting reports whether the station's own transmission is still in
// the air in the current slot.
func (e *Env) Transmitting() bool {
	return e.engine.txBusyUntil[e.node] >= e.engine.now
}

// Rand returns the simulation PRNG. MAC callbacks run sequentially in
// station order, so sharing the engine PRNG keeps runs reproducible.
func (e *Env) Rand() *rand.Rand { return e.engine.rng }

// ReportContention emits EvContention: the station is entering a
// CSMA/CA contention phase for the request, counted on it afterwards.
func (e *Env) ReportContention(req *Request) {
	e.engine.emit(Event{Kind: EvContention, Slot: e.engine.now, Station: e.node, Req: req})
	req.Contentions++
}

// ReportComplete emits EvComplete: the sending MAC considers the request
// served.
func (e *Env) ReportComplete(req *Request) {
	e.engine.emit(Event{Kind: EvComplete, Slot: e.engine.now, Station: e.node, Req: req})
}

// ReportAbort emits EvAbort: the sending MAC abandoned the request, for
// the given reason (deadline passed or retry budget exhausted).
func (e *Env) ReportAbort(req *Request, reason AbortReason) {
	e.engine.emit(Event{Kind: EvAbort, Slot: e.engine.now, Station: e.node, Req: req, Reason: reason})
}

// ReportRound emits EvRound: a multi-round group protocol finished one
// round with residual intended receivers still unserved — the per-round
// graceful-degradation signal: under an impaired channel the residual
// shrinks more slowly (or not at all) and the round count grows. The
// request's counts follow afterwards.
func (e *Env) ReportRound(req *Request, residual int) {
	e.engine.emit(Event{Kind: EvRound, Slot: e.engine.now, Station: e.node, Req: req, Residual: residual})
	req.Rounds++
	req.Residual = residual
}

// ReportServiceStart emits EvServiceStart: the station dequeued the
// request into service.
func (e *Env) ReportServiceStart(req *Request) {
	e.engine.emit(Event{Kind: EvServiceStart, Slot: e.engine.now, Station: e.node, Req: req})
}

// ReportRoundStart emits EvRoundStart: a group protocol is opening the
// given 1-based round of the request and will poll polled receivers.
func (e *Env) ReportRoundStart(req *Request, round, polled int) {
	e.engine.emit(Event{Kind: EvRoundStart, Slot: e.engine.now, Station: e.node, Req: req, Round: round, Polled: polled})
}

// ReportResponseDrop emits EvResponseDrop: this station discarded a
// stale scheduled response.
func (e *Env) ReportResponseDrop(f *frames.Frame) {
	e.engine.emit(Event{Kind: EvResponseDrop, Slot: e.engine.now, Station: e.node, Frame: f})
}

// Package bmw implements the Broadcast Medium Window protocol of Tang and
// Gerla (MILCOM 2001) [21], the reliable baseline the paper compares
// against: a broadcast/multicast request is treated as a sequence of
// unicast rounds, one per intended receiver, each served with the
// DCF-style CSMA/RTS/CTS/DATA/ACK exchange.
//
// Reliability comes from per-receiver ACKs; the cost is at least n
// contention phases per message (paper §3), which is exactly the overhead
// BMMM removes. BMW's one economy is the receive buffer: group members
// record every data frame of their group they overhear, and a polled
// receiver whose buffer already holds the frame returns a CTS that
// suppresses the (re) transmission, so in the collision-free case the
// data frame itself is sent only once.
//
// Faithfulness note: the published protocol tracks per-sender sequence
// numbers and lets a CTS list several missing frames. Our simulated
// messages are independent single-frame requests, so the RECEIVE BUFFER
// reduces to a set of message IDs and Missing to at most one entry; the
// suppression behaviour — the part the evaluation depends on — is
// preserved. See DESIGN.md.
package bmw

import (
	"relmac/internal/baseline/dcf"
	"relmac/internal/frames"
	"relmac/internal/mac"
	"relmac/internal/sim"
)

// state names the response window the sender waits in.
type state uint8

const (
	waitCTS state = iota
	waitACK
)

// ctsKind records what the polled receiver answered in the current round.
type ctsKind uint8

const (
	ctsNone ctsKind = iota
	ctsSuppress
	ctsMissing
)

// Multicaster is the BMW group-service state machine.
type Multicaster struct {
	st      state
	targets []int
	idx     int
	cts     ctsKind
	gotACK  bool
}

// New returns a sim.MAC factory for stations running BMW.
func New(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Multicaster{})
	}
}

// Begin implements dcf.Multicaster.
func (m *Multicaster) Begin(st *dcf.Station, env *sim.Env, req *sim.Request) {
	m.targets = req.Dests
	m.idx = 0
	// BMW's rounds are per-receiver: the first one opens here, each later
	// one in advance. Retries re-enter the current round and are not
	// reported as round starts.
	env.ReportRoundStart(req, m.idx+1, 1)
}

// Won implements dcf.Multicaster: the RTS polling the current target.
func (m *Multicaster) Won(st *dcf.Station, env *sim.Env) *frames.Frame {
	tm := env.Timing()
	m.cts = ctsNone
	m.st = waitCTS
	st.WaitUntil(env.Now() + 2)
	return st.Send(&frames.Frame{
		Type: frames.RTS, Dst: frames.Addr(m.targets[m.idx]),
		MsgID:    st.Current().ID,
		Duration: tm.Control + tm.Data + tm.Control, // CTS + DATA + ACK
	}, m.targets)
}

// Next implements dcf.Multicaster.
func (m *Multicaster) Next(st *dcf.Station, env *sim.Env) *frames.Frame {
	switch {
	case m.st == waitCTS && m.cts == ctsSuppress:
		// The receiver already holds every frame: next target.
		m.advance(st, env)
	case m.st == waitCTS && m.cts == ctsMissing:
		tm := env.Timing()
		m.gotACK = false
		m.st = waitACK
		st.WaitUntil(env.Now() + sim.Slot(tm.Data) + 1)
		return st.Send(&frames.Frame{
			Type: frames.Data, Dst: frames.Addr(m.targets[m.idx]),
			MsgID:    st.Current().ID,
			Duration: tm.Control, // the pending ACK
		}, m.targets)
	case m.st == waitACK && m.gotACK:
		m.advance(st, env)
	default:
		st.Retry(env)
	}
	return nil
}

// advance moves to the next target on the NEIGHBOR list, finishing the
// message when every target has been served. Each served target closes
// one BMW round; the residual is the tail of the NEIGHBOR list. The next
// round contends without widening the window: a served target is not a
// failure.
func (m *Multicaster) advance(st *dcf.Station, env *sim.Env) {
	req := st.Current()
	m.idx++
	env.ReportRound(req, len(m.targets)-m.idx)
	if m.idx >= len(m.targets) {
		st.FinishRequest(env, true)
		return
	}
	env.ReportRoundStart(req, m.idx+1, 1)
	st.NextRound(env)
}

// OnResponse implements dcf.Multicaster: the CTS and ACK of the polled
// target. Replies from any other station are ignored.
func (m *Multicaster) OnResponse(st *dcf.Station, env *sim.Env, f *frames.Frame) {
	if f.Src != frames.Addr(m.targets[m.idx]) {
		return
	}
	switch {
	case f.Type == frames.CTS && m.st == waitCTS:
		if f.Suppress {
			m.cts = ctsSuppress
		} else {
			m.cts = ctsMissing
		}
	case f.Type == frames.ACK && m.st == waitACK:
		m.gotACK = true
	}
}

// OnDeliver implements dcf.Multicaster.
func (m *Multicaster) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	tm := env.Timing()
	addressed := rx&sim.RxAddressed != 0

	switch f.Type {
	case frames.RTS:
		if f.Group == nil || !addressed || !st.CanRespond(env, f) {
			return
		}
		if st.HasData(f) {
			// All frames up to and including the announced one are in the
			// RECEIVE BUFFER: suppress the data transmission.
			st.Respond(env, &frames.Frame{
				Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID, Suppress: true,
			})
			return
		}
		cts := st.Respond(env, &frames.Frame{
			Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
			Duration: tm.Data + tm.Control, // DATA + ACK to come
		})
		// The list goes into the scheduled frame's own reused storage.
		cts.Missing = append(cts.Missing, int(f.MsgID))
	case frames.Data:
		if rx&sim.RxMember == 0 {
			return
		}
		// The station has already logged the frame for HasData — every
		// group member that decodes a BMW data frame caches it, addressed
		// or merely overheard, which is the whole point of the RECEIVE
		// BUFFER. Only the addressed receiver ACKs.
		if addressed {
			st.Respond(env, &frames.Frame{
				Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
			})
		}
	default:
		// CTS/ACK reach the sender through OnResponse; RAK/NAK play
		// no role in BMW's per-neighbor unicast rounds.
	}
}

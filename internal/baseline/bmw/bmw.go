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

type state uint8

const (
	idle state = iota
	contend
	waitCTS
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
	st       state
	req      *sim.Request
	group    []frames.Addr
	targets  []int
	idx      int
	cts      ctsKind
	gotACK   bool
	checkAt  sim.Slot
	attempts int

	// recvBuf is the RECEIVE BUFFER: data frames of groups this station
	// belongs to, whether addressed to it or overheard.
	recvBuf map[int64]bool
}

// New returns a sim.MAC factory for stations running BMW.
func New(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Multicaster{})
	}
}

// Begin implements dcf.Multicaster.
func (m *Multicaster) Begin(st *dcf.Station, env *sim.Env, req *sim.Request) {
	m.req = req
	m.group = dcf.GroupAddrs(req.Dests)
	m.targets = req.Dests
	m.idx = 0
	m.attempts = 0
	if len(req.Dests) == 0 {
		m.st = idle
		st.FinishRequest(env, true)
		return
	}
	// BMW's rounds are per-receiver: the first one opens here, each later
	// one in advance. Retries re-enter the current round and are not
	// reported as round starts.
	env.ReportRoundStart(req, m.idx+1, 1)
	m.st = contend
	st.StartContention(env)
}

// SenderTick implements dcf.Multicaster.
func (m *Multicaster) SenderTick(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	tm := st.Config().Timing
	switch m.st {
	case contend:
		if !st.ContentionTick(env) {
			return nil
		}
		m.attempts++
		m.cts = ctsNone
		m.st = waitCTS
		m.checkAt = now + 2
		return &frames.Frame{
			Type: frames.RTS, Dst: frames.Addr(m.targets[m.idx]),
			MsgID: m.req.ID, Group: m.group,
			Duration: tm.Control + tm.Data + tm.Control, // CTS + DATA + ACK
		}
	case waitCTS:
		if now < m.checkAt {
			return nil
		}
		switch m.cts {
		case ctsSuppress:
			// The receiver already holds every frame: next target.
			return m.advance(st, env)
		case ctsMissing:
			m.gotACK = false
			m.st = waitACK
			m.checkAt = now + sim.Slot(tm.Data) + 1
			return &frames.Frame{
				Type: frames.Data, Dst: frames.Addr(m.targets[m.idx]),
				MsgID: m.req.ID, Group: m.group,
				Duration: tm.Control, // the pending ACK
			}
		default:
			return m.retry(st, env)
		}
	case waitACK:
		if now < m.checkAt {
			return nil
		}
		if m.gotACK {
			return m.advance(st, env)
		}
		return m.retry(st, env)
	}
	return nil
}

// advance moves to the next target on the NEIGHBOR list, finishing the
// message when every target has been served. Each served target closes
// one BMW round; the residual is the tail of the NEIGHBOR list.
func (m *Multicaster) advance(st *dcf.Station, env *sim.Env) *frames.Frame {
	m.idx++
	env.ReportRound(m.req, len(m.targets)-m.idx)
	if m.idx >= len(m.targets) {
		m.st = idle
		st.FinishRequest(env, true)
		return nil
	}
	env.ReportRoundStart(m.req, m.idx+1, 1)
	m.st = contend
	st.StartContention(env)
	return nil
}

func (m *Multicaster) retry(st *dcf.Station, env *sim.Env) *frames.Frame {
	if m.attempts >= st.Config().RetryLimit {
		m.st = idle
		st.FinishRequest(env, false)
		return nil
	}
	st.ContentionFail()
	m.st = contend
	st.StartContention(env)
	return nil
}

// OnDeliver implements dcf.Multicaster.
func (m *Multicaster) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	now := env.Now()
	tm := st.Config().Timing
	addressed := rx&sim.RxAddressed != 0

	// Sender side: responses from the currently polled target.
	if m.req != nil && f.MsgID == m.req.ID && addressed &&
		m.idx < len(m.targets) && f.Src == frames.Addr(m.targets[m.idx]) {
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

	// Receiver side.
	switch f.Type {
	case frames.RTS:
		if f.Group == nil || !addressed || !st.CanRespond(f, now) {
			return
		}
		if m.recvBuf[f.MsgID] {
			// All frames up to and including the announced one are in the
			// RECEIVE BUFFER: suppress the data transmission.
			st.Respond(env, &frames.Frame{
				Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID, Suppress: true,
			})
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
			Missing:  []int{int(f.MsgID)},
			Duration: tm.Data + tm.Control, // DATA + ACK to come
		})
	case frames.Data:
		if rx&sim.RxMember == 0 {
			return
		}
		// Every group member that decodes a BMW data frame caches it,
		// addressed or merely overheard — that is the whole point of the
		// RECEIVE BUFFER. A station outside the group is never polled
		// for the message, so caching it there could never suppress
		// anything.
		if m.recvBuf == nil {
			m.recvBuf = make(map[int64]bool)
		}
		m.recvBuf[f.MsgID] = true
		if addressed {
			st.Respond(env, &frames.Frame{
				Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
			})
		}
	default:
		// CTS/ACK are consumed on the sender side; RAK/NAK/Beacon play
		// no role in BMW's per-neighbor unicast rounds.
	}
}

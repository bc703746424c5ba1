// Package kuri implements the leader-based reliable multicast MAC of
// Kuri and Kasera, "Reliable Multicast in Multi-Access Wireless LANs"
// (ACM/Kluwer Wireless Networks, 2001) — reference [13] of the paper.
// The paper cites it among the related work; it is included here as an
// additional comparison point between the fully unreliable (802.11,
// BSMA) and fully receiver-acknowledged (BMW, BMMM, LAMM) designs.
//
// The idea: designate one intended receiver as the *leader*.
//
//   - The sender transmits a group RTS; ONLY the leader answers with a
//     CTS, so CTS frames never collide (solving the Tang–Gerla problem
//     without per-receiver polling).
//   - After the data frame, the leader returns an ACK. A non-leader that
//     was primed by the RTS but missed the data frame transmits a NAK in
//     the same slot — deliberately colliding with the leader's ACK so
//     the sender hears garbage and retransmits. Negative feedback works
//     by jamming the positive feedback.
//
// The scheme is cheaper than BMW/BMMM (two control frames per round
// regardless of group size) but weaker: a receiver that missed the RTS
// as well as the data stays silent and is never recovered.
package kuri

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

// Multicaster is the leader-based group service state machine.
type Multicaster struct {
	st       state
	req      *sim.Request
	group    []frames.Addr
	leader   frames.Addr
	gotCTS   bool
	gotACK   bool
	checkAt  sim.Slot
	attempts int

	rxSeen map[int64]bool
}

// New returns a sim.MAC factory for stations running the leader-based
// protocol. The leader of each multicast is its first intended receiver.
func New(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Multicaster{})
	}
}

// Begin implements dcf.Multicaster.
func (m *Multicaster) Begin(st *dcf.Station, env *sim.Env, req *sim.Request) {
	m.req = req
	m.group = dcf.GroupAddrs(req.Dests)
	m.attempts = 0
	if len(req.Dests) == 0 {
		m.st = idle
		st.FinishRequest(env, true)
		return
	}
	m.leader = frames.Addr(req.Dests[0])
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
		m.gotCTS = false
		m.st = waitCTS
		m.checkAt = now + 2
		return &frames.Frame{
			Type: frames.RTS, Dst: m.leader, MsgID: m.req.ID, Group: m.group,
			Duration: tm.Control + tm.Data + tm.Control, // CTS + DATA + ACK
		}
	case waitCTS:
		if now < m.checkAt {
			return nil
		}
		if !m.gotCTS {
			return m.retry(st, env)
		}
		m.gotACK = false
		m.st = waitACK
		m.checkAt = now + sim.Slot(tm.Data) + 1
		return &frames.Frame{
			Type: frames.Data, Dst: frames.BroadcastAddr,
			MsgID: m.req.ID, Group: m.group,
			Duration: tm.Control, // the ACK (or the NAK jam) slot
		}
	case waitACK:
		if now < m.checkAt {
			return nil
		}
		if m.gotACK {
			// A clean ACK means the leader holds the data AND no primed
			// receiver jammed with a NAK.
			m.st = idle
			st.FinishRequest(env, true)
			return nil
		}
		return m.retry(st, env)
	}
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
	member := rx&sim.RxMember != 0

	// Sender side.
	if m.req != nil && f.MsgID == m.req.ID && addressed {
		switch {
		case f.Type == frames.CTS && m.st == waitCTS:
			m.gotCTS = true
		case f.Type == frames.ACK && m.st == waitACK:
			m.gotACK = true
		}
	}

	// Receiver side.
	switch f.Type {
	case frames.RTS:
		if !member {
			return
		}
		if addressed {
			// Leader duties: answer the CTS (unless yielding to another
			// exchange) and expect the data.
			if m.rxSeen[f.MsgID] {
				// Retransmission; the leader already holds the data and
				// will simply ACK again after the data frame.
			}
			if st.CanRespond(f, now) {
				st.Respond(env, &frames.Frame{
					Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
					Duration: f.Duration - tm.Control,
				})
			}
			return
		}
		// Non-leader primed by the RTS: arm the NAK jam for the slot the
		// leader's ACK would occupy; receiving the data cancels it.
		if m.rxSeen[f.MsgID] {
			return
		}
		deadline := now + 1 + 1 + sim.Slot(tm.Data)
		st.RespondAt(deadline, &frames.Frame{
			Type: frames.NAK, Dst: f.Src, MsgID: f.MsgID,
		})
	case frames.Data:
		if !member {
			return
		}
		if m.rxSeen == nil {
			m.rxSeen = make(map[int64]bool)
		}
		m.rxSeen[f.MsgID] = true
		st.CancelResponses(func(p *frames.Frame) bool {
			return p.Type == frames.NAK && p.MsgID == f.MsgID
		})
		if f.Group[0] == st.Addr() {
			// The leader ACKs every correctly received data frame.
			st.Respond(env, &frames.Frame{
				Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
			})
		}
	default:
		// CTS/ACK/NAK reach the sender via its response bookkeeping;
		// RAK and Beacon play no role in the leader-based scheme.
	}
}

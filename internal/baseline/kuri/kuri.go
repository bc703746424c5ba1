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

// state names the response window the sender waits in.
type state uint8

const (
	waitCTS state = iota
	waitACK
)

// Multicaster is the leader-based group service state machine.
type Multicaster struct {
	st     state
	leader frames.Addr
	gotCTS bool
	gotACK bool
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
	m.leader = frames.Addr(req.Dests[0])
}

// Won implements dcf.Multicaster: the group RTS, addressed to the leader.
func (m *Multicaster) Won(st *dcf.Station, env *sim.Env) *frames.Frame {
	tm := env.Timing()
	m.gotCTS = false
	m.st = waitCTS
	st.WaitUntil(env.Now() + 2)
	return st.Send(&frames.Frame{
		Type: frames.RTS, Dst: m.leader, MsgID: st.Current().ID,
		Duration: tm.Control + tm.Data + tm.Control, // CTS + DATA + ACK
	}, st.Current().Dests)
}

// Next implements dcf.Multicaster.
func (m *Multicaster) Next(st *dcf.Station, env *sim.Env) *frames.Frame {
	switch {
	case m.st == waitCTS && m.gotCTS:
		tm := env.Timing()
		m.gotACK = false
		m.st = waitACK
		st.WaitUntil(env.Now() + sim.Slot(tm.Data) + 1)
		return st.Send(&frames.Frame{
			Type: frames.Data, Dst: frames.BroadcastAddr,
			MsgID:    st.Current().ID,
			Duration: tm.Control, // the ACK (or the NAK jam) slot
		}, st.Current().Dests)
	case m.st == waitACK && m.gotACK:
		// A clean ACK means the leader holds the data AND no primed
		// receiver jammed with a NAK.
		st.FinishRequest(env, true)
	default:
		st.Retry(env)
	}
	return nil
}

// OnResponse implements dcf.Multicaster: the leader's CTS and ACK. A
// NAK jam reaches the sender only as a lost ACK.
func (m *Multicaster) OnResponse(st *dcf.Station, env *sim.Env, f *frames.Frame) {
	switch {
	case f.Type == frames.CTS && m.st == waitCTS:
		m.gotCTS = true
	case f.Type == frames.ACK && m.st == waitACK:
		m.gotACK = true
	}
}

// OnDeliver implements dcf.Multicaster.
func (m *Multicaster) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	now := env.Now()
	tm := env.Timing()
	addressed := rx&sim.RxAddressed != 0
	member := rx&sim.RxMember != 0

	switch f.Type {
	case frames.RTS:
		if !member {
			return
		}
		if addressed {
			// Leader duties: answer the CTS (unless yielding to another
			// exchange) and expect the data. On a retransmission the leader
			// already holds the data and simply ACKs it again.
			if st.CanRespond(env, f) {
				st.Respond(env, &frames.Frame{
					Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
					Duration: f.Duration - tm.Control,
				})
			}
			return
		}
		// Non-leader primed by the RTS: arm the NAK jam for the slot the
		// leader's ACK would occupy; receiving the data cancels it.
		if st.HasData(f) {
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
		// CTS/ACK/NAK reach the sender through OnResponse; RAK plays no
		// role in the leader-based scheme.
	}
}

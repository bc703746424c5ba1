package dcf

import (
	"slices"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// uniState enumerates the response windows of the DCF unicast sender.
type uniState uint8

const (
	uniWaitCTS uniState = iota
	uniWaitACK
)

// uniFSM is the standard 802.11 DCF unicast exchange (CSMA/CA +
// RTS/CTS/DATA/ACK with binary exponential backoff retries), sender and
// receiver side. Every protocol in the comparison serves its unicast
// traffic through this machine, so the unicast background load is
// identical across protocols.
type uniFSM struct {
	state  uniState
	target frames.Addr
	gotCTS bool
	gotACK bool
}

// Begin implements Multicaster.
func (u *uniFSM) Begin(st *Station, env *sim.Env, req *sim.Request) {
	u.target = frames.Addr(req.Dests[0])
}

// Won implements Multicaster: the RTS.
func (u *uniFSM) Won(st *Station, env *sim.Env) *frames.Frame {
	tm := env.Timing()
	u.gotCTS = false
	u.state = uniWaitCTS
	st.WaitUntil(env.Now() + 2) // RTS occupies this slot; CTS the next
	return st.Send(&frames.Frame{
		Type: frames.RTS, Dst: u.target, MsgID: st.cur.ID,
		Duration: tm.Control + tm.Data + tm.Control, // CTS + DATA + ACK
	}, nil)
}

// Next implements Multicaster: DATA after a CTS, done after an ACK.
func (u *uniFSM) Next(st *Station, env *sim.Env) *frames.Frame {
	switch {
	case u.state == uniWaitCTS && u.gotCTS:
		tm := env.Timing()
		u.gotACK = false
		u.state = uniWaitACK
		st.WaitUntil(env.Now() + sim.Slot(tm.Data) + 1)
		return st.Send(&frames.Frame{
			Type: frames.Data, Dst: u.target, MsgID: st.cur.ID,
			Duration: tm.Control, // the pending ACK
		}, nil)
	case u.state == uniWaitACK && u.gotACK:
		st.FinishRequest(env, true)
	default:
		st.Retry(env)
	}
	return nil
}

// OnResponse implements Multicaster: the CTS and the ACK.
func (u *uniFSM) OnResponse(st *Station, env *sim.Env, f *frames.Frame) {
	switch {
	case f.Type == frames.CTS && u.state == uniWaitCTS:
		u.gotCTS = true
	case f.Type == frames.ACK && u.state == uniWaitACK:
		u.gotACK = true
	}
}

// OnDeliver implements Multicaster: the receiver side of the exchange,
// for frames without a group.
func (u *uniFSM) OnDeliver(st *Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	if f.Group != nil || rx&sim.RxAddressed == 0 {
		return
	}
	switch f.Type {
	case frames.RTS:
		if st.CanRespond(env, f) {
			st.Respond(env, &frames.Frame{
				Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
				Duration: f.Duration - env.Timing().Control,
			})
		}
	case frames.Data:
		st.Respond(env, &frames.Frame{
			Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
		})
	default:
		// CTS and ACK reach the sender through OnResponse; RAK and NAK
		// are not part of the DCF unicast exchange.
	}
}

// groupAddrs writes intended-receiver station IDs as frame addresses
// into dst's storage and returns the list.
func groupAddrs(dst []frames.Addr, dests []int) []frames.Addr {
	dst = slices.Grow(dst[:0], len(dests))
	for _, d := range dests {
		dst = append(dst, frames.Addr(d))
	}
	return dst
}

package dcf

import (
	"relmac/internal/frames"
	"relmac/internal/mac"
	"relmac/internal/sim"
)

// Plain is the unreliable IEEE 802.11 multicast/broadcast MAC (§2.2 of
// the paper): the sender simply executes one contention phase and
// transmits the data frame. There is no RTS/CTS handshake, no ACK and no
// MAC-level recovery — lost frames stay lost, which is exactly the
// reliability gap BMMM and LAMM close.
type Plain struct {
	state plainState
	req   *sim.Request
}

type plainState uint8

const (
	plainIdle plainState = iota
	plainContend
	plainSending
)

// Begin implements Multicaster.
func (p *Plain) Begin(st *Station, env *sim.Env, req *sim.Request) {
	p.req = req
	if len(req.Dests) == 0 {
		p.state = plainIdle
		st.FinishRequest(env, true)
		return
	}
	p.state = plainContend
	st.StartContention(env)
}

// SenderTick implements Multicaster.
func (p *Plain) SenderTick(st *Station, env *sim.Env) *frames.Frame {
	switch p.state {
	case plainContend:
		if !st.ContentionTick(env) {
			return nil
		}
		p.state = plainSending
		return &frames.Frame{
			Type: frames.Data, Dst: frames.BroadcastAddr,
			MsgID: p.req.ID, Group: GroupAddrs(p.req.Dests),
		}
	case plainSending:
		// First tick after the data frame left the air: done. Whether
		// anyone received it is unknown to the sender by design.
		p.state = plainIdle
		st.FinishRequest(env, true)
	}
	return nil
}

// OnDeliver implements Multicaster: plain multicast receivers take no
// MAC-level action at all.
func (p *Plain) OnDeliver(st *Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {}

// NewPlain returns a sim.MAC factory for stations running standard
// 802.11: DCF unicast plus the unreliable basic-access multicast.
func NewPlain(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return NewStation(node, cfg, &Plain{})
	}
}

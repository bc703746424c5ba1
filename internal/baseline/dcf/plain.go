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
type Plain struct{}

// Begin implements Multicaster: Plain keeps no per-request state.
func (Plain) Begin(st *Station, env *sim.Env, req *sim.Request) {}

// Won implements Multicaster: the data frame, once.
func (Plain) Won(st *Station, env *sim.Env) *frames.Frame {
	req := st.cur
	st.WaitUntil(env.Now() + sim.Slot(env.Timing().Data)) // first slot after the data frame
	return st.Send(&frames.Frame{
		Type: frames.Data, Dst: frames.BroadcastAddr, MsgID: req.ID,
	}, req.Dests)
}

// Next implements Multicaster: the data frame has left the air, so the
// request is done. Plain never retries: whether anyone received the
// frame is unknown to the sender by design.
func (Plain) Next(st *Station, env *sim.Env) *frames.Frame {
	st.FinishRequest(env, true)
	return nil
}

// OnResponse implements Multicaster: nothing answers a plain multicast.
func (Plain) OnResponse(st *Station, env *sim.Env, f *frames.Frame) {}

// OnDeliver implements Multicaster: plain multicast receivers take no
// MAC-level action at all.
func (Plain) OnDeliver(st *Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {}

// NewPlain returns a sim.MAC factory for stations running standard
// 802.11: DCF unicast plus the unreliable basic-access multicast.
func NewPlain(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return NewStation(node, cfg, Plain{})
	}
}

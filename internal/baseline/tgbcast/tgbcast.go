// Package tgbcast implements the Tang–Gerla broadcast/multicast MAC
// protocols the paper evaluates as baselines:
//
//   - the RTS/CTS broadcast extension of MILCOM 2000 [19]: the sender
//     contends, transmits a group RTS, and transmits the data frame if it
//     hears at least one CTS — the intended receivers all answer in the
//     same slot, so their CTS frames usually collide at the sender unless
//     the radio captures one (§3 of the paper);
//   - BSMA, WCNC 2000 [20]: the same protocol plus a NAK rule — a
//     receiver that sent a CTS but missed the data frame transmits a NAK
//     at its WAIT_FOR_DATA deadline, and a sender that hears any NAK in
//     its WAIT_FOR_NAK window backs off and retransmits.
//
// Both variants are logically unreliable: the sender can finish without
// every intended receiver holding the data (paper §3, §7.3).
package tgbcast

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
	afterData
)

// Multicaster is the Tang–Gerla / BSMA group-service state machine.
type Multicaster struct {
	// UseNAK enables the BSMA NAK rule [20]; disabled it is the plain
	// RTS/CTS broadcast of [19].
	UseNAK bool

	st       state
	req      *sim.Request
	group    []frames.Addr
	gotCTS   bool
	nakSeen  bool
	checkAt  sim.Slot
	attempts int
}

// New returns a sim.MAC factory for stations running the Tang–Gerla
// broadcast MAC [19] (no NAK).
func New(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return factory(cfg, false)
}

// NewBSMA returns a sim.MAC factory for stations running BSMA [20].
func NewBSMA(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return factory(cfg, true)
}

func factory(cfg mac.Config, nak bool) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Multicaster{UseNAK: nak})
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
	m.st = contend
	st.StartContention(env)
}

// nakWindow is the number of slots after the data frame ends during which
// the sender listens for NAKs (WAIT_FOR_NAK): one slot for the NAK
// airtime plus one for the decision.
const nakWindow = 2

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
		dur := tm.Control + tm.Data // the CTS and the data frame
		if m.UseNAK {
			dur += nakWindow
		}
		return &frames.Frame{
			Type: frames.RTS, Dst: frames.BroadcastAddr,
			MsgID: m.req.ID, Group: m.group, Duration: dur,
		}
	case waitCTS:
		if now < m.checkAt {
			return nil
		}
		if !m.gotCTS {
			return m.retry(st, env)
		}
		m.nakSeen = false
		m.st = afterData
		m.checkAt = now + sim.Slot(tm.Data)
		if m.UseNAK {
			m.checkAt += nakWindow - 1
		}
		dur := 0
		if m.UseNAK {
			dur = nakWindow
		}
		return &frames.Frame{
			Type: frames.Data, Dst: frames.BroadcastAddr,
			MsgID: m.req.ID, Group: m.group, Duration: dur,
		}
	case afterData:
		if now < m.checkAt {
			return nil
		}
		if m.UseNAK && m.nakSeen {
			// Some receiver reported a missing data frame: back off and
			// retransmit from the top.
			return m.retry(st, env)
		}
		// [19] finishes right after the data frame; BSMA finishes when
		// its NAK window stayed silent. Either way the sender cannot
		// actually know who received the data.
		m.st = idle
		st.FinishRequest(env, true)
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

// OnDeliver implements dcf.Multicaster: the receiver side of [19]/[20]
// plus the sender's CTS/NAK collection.
func (m *Multicaster) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	now := env.Now()
	tm := st.Config().Timing
	member := rx&sim.RxMember != 0

	// Sender side: collect CTS and NAK for the message in service.
	if m.req != nil && f.MsgID == m.req.ID && rx&sim.RxAddressed != 0 {
		switch {
		case f.Type == frames.CTS && m.st == waitCTS:
			m.gotCTS = true
		case f.Type == frames.NAK && m.st == afterData:
			m.nakSeen = true
		}
	}

	// Receiver side.
	switch f.Type {
	case frames.RTS:
		if !member {
			return
		}
		if st.HasData(f) {
			// Retransmission of a frame this station already holds:
			// answer the CTS anyway (the sender is retransmitting for
			// someone else) but do not arm a NAK.
			if st.CanRespond(f, now) {
				st.Respond(env, &frames.Frame{
					Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
					Duration: f.Duration - tm.Control,
				})
			}
			return
		}
		if !st.CanRespond(f, now) {
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
			Duration: f.Duration - tm.Control,
		})
		if m.UseNAK {
			// WAIT_FOR_DATA: the data frame should have fully arrived by
			// (CTS slot) + 1 + T_DATA; arm a NAK for the slot after.
			deadline := now + 1 + 1 + sim.Slot(tm.Data)
			st.RespondAt(deadline, &frames.Frame{
				Type: frames.NAK, Dst: f.Src, MsgID: f.MsgID,
			})
		}
	case frames.Data:
		if !member {
			return
		}
		if m.UseNAK {
			st.CancelResponses(func(p *frames.Frame) bool {
				return p.Type == frames.NAK && p.MsgID == f.MsgID
			})
		}
	default:
		// CTS/NAK are sender-side events (handled via responses), and
		// ACK/RAK play no role in the [19]/[20] exchanges.
	}
}

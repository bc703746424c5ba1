// Package core implements the paper's two contributions:
//
//   - BMMM, the Batch Mode Multicast MAC protocol (§4): one contention
//     phase per batch instead of one per receiver. After winning the
//     medium, the sender polls each intended receiver with an RTS and
//     collects the CTS replies one at a time (so control frames never
//     collide), transmits the data frame once if at least one CTS
//     arrived, then polls each receiver with a RAK (Request for ACK) —
//     the new control frame of Figure 1 — collecting ACKs one at a time.
//     Receivers that did not ACK are carried into the next batch round.
//     Because the medium never idles longer than a response turnaround
//     inside a batch, no neighbor can pass its DIFS-gated contention
//     phase mid-batch.
//
//   - LAMM, the Location Aware Multicast MAC protocol (§5): BMMM applied
//     to the minimum cover set MCS(S) of the intended receivers instead
//     of all of S (Theorems 1–2), with the remainder set shrunk after
//     each round by the angle-based UPDATE(S, S_ACK) procedure (Theorems
//     3–4): any node whose coverage disk lies inside the union of the
//     ACKing nodes' disks is guaranteed to have received the data frame
//     without collision and needs no explicit acknowledgement.
//
// Both protocols are assembled from the batch state machine in this file
// plus a Picker strategy choosing whom to poll and whom to retire.
package core

import (
	"relmac/internal/baseline/dcf"
	"relmac/internal/frames"
	"relmac/internal/mac"
	"relmac/internal/sim"
)

// Picker is the strategy point distinguishing BMMM from LAMM.
type Picker interface {
	// Poll chooses the subset of the remaining intended receivers S that
	// the next batch round will poll with RTS/RAK frames. It must return
	// a non-empty subset of S whenever S is non-empty.
	Poll(env *sim.Env, S []int) []int
	// Update returns the receivers still unserved after a round in which
	// the stations in acked (a subset of the polled set) returned ACKs.
	Update(env *sim.Env, S []int, acked []int) []int
}

type phase uint8

const (
	idle phase = iota
	contend
	polling
	raking
)

// Batch is the Batch_Mode_Procedure state machine of Figure 3, driving
// one multicast request through as many batch rounds as needed.
type Batch struct {
	pick Picker

	ph   phase
	req  *sim.Request
	S    []int // remaining intended receivers
	poll []int // stations polled this round
	// pollAddrs is poll as frame addresses, built once per round: every
	// RTS and RAK of the round carries the same group, and receivers
	// only read it, so the frames can share one slice. A fresh slice is
	// built each round — frames outlive rounds in tracers and tests.
	pollAddrs []frames.Addr
	i         int // next poll/RAK index
	checkAt   sim.Slot
	anyCTS    bool
	acked     map[int]bool
	attempts  int
}

// NewBMMM returns a sim.MAC factory for stations running BMMM.
func NewBMMM(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Batch{pick: bmmmPicker{}})
	}
}

// NewLAMM returns a sim.MAC factory for stations running LAMM.
func NewLAMM(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	geo := newCoverStore(nil)
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Batch{pick: newLAMMPicker(nil, geo)})
	}
}

// NewLAMMReference returns a LAMM factory with the shared cover-angle
// store and the per-topology MCS memo disabled: every round re-derives
// MCS(S) and UPDATE from the believed points through geom.MinCoverSet
// and geom.Update. It exists for the reference-vs-optimized equivalence
// tests and for cmd/relbench; results are bit-identical to NewLAMM.
func NewLAMMReference(cfg mac.Config) func(node int, env *sim.Env) sim.MAC {
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Batch{pick: newLAMMPicker(nil, nil)})
	}
}

// NewLAMMNoisy returns a sim.MAC factory for stations running LAMM with
// imperfect location knowledge: every station's advertised position
// carries Gaussian error of standard deviation sigma (unit-square
// units). sigma = 0 reproduces NewLAMM. This is the location-error study
// of DESIGN.md — the paper asserts GPS accuracy suffices for LAMM;
// sweeping sigma quantifies the claim.
func NewLAMMNoisy(cfg mac.Config, sigma float64, seed int64) func(node int, env *sim.Env) sim.MAC {
	locs := &NoisyLocations{Sigma: sigma, Seed: seed}
	if sigma <= 0 {
		locs = nil
	}
	geo := newCoverStore(locs)
	return func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, &Batch{pick: newLAMMPicker(locs, geo)})
	}
}

// NewBatch builds a Batch with a custom Picker (used by tests and
// ablation benches).
func NewBatch(p Picker) *Batch { return &Batch{pick: p} }

// Begin implements dcf.Multicaster.
func (b *Batch) Begin(st *dcf.Station, env *sim.Env, req *sim.Request) {
	b.req = req
	b.S = append(b.S[:0:0], req.Dests...)
	b.attempts = 0
	if len(b.S) == 0 {
		b.ph = idle
		st.FinishRequest(env, true)
		return
	}
	b.startRound(st, env)
}

// startRound enters the contention phase that precedes a batch round.
func (b *Batch) startRound(st *dcf.Station, env *sim.Env) {
	b.poll = b.pick.Poll(env, b.S)
	b.pollAddrs = dcf.GroupAddrs(b.poll)
	// attempts increments when the contention this round opens with is
	// won, so attempts+1 is the 1-based ordinal of the round about to run.
	env.ReportRoundStart(b.req, b.attempts+1, len(b.poll))
	b.ph = contend
	st.StartContention(env)
}

// SenderTick implements dcf.Multicaster.
func (b *Batch) SenderTick(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	switch b.ph {
	case contend:
		if !st.ContentionTick(env) {
			return nil
		}
		b.attempts++
		b.i = 0
		b.anyCTS = false
		// Reuse the ACK set across rounds; only lookups and keyed writes
		// touch it, so clearing instead of reallocating cannot perturb
		// any iteration order.
		if b.acked == nil {
			b.acked = make(map[int]bool, len(b.poll))
		} else {
			clear(b.acked)
		}
		b.ph = polling
		b.checkAt = now
		return b.tickPolling(st, env)
	case polling:
		if now < b.checkAt {
			return nil
		}
		return b.tickPolling(st, env)
	case raking:
		if now < b.checkAt {
			return nil
		}
		return b.tickRaking(st, env)
	}
	return nil
}

// tickPolling sends the next RTS of the round, or — after the last CTS
// window — the data frame.
func (b *Batch) tickPolling(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	tm := st.Config().Timing
	n := len(b.poll)
	if b.i < n {
		target := b.poll[b.i]
		b.i++
		b.checkAt = now + 2 // RTS this slot, CTS next, decide after
		return &frames.Frame{
			Type: frames.RTS, Dst: frames.Addr(target),
			MsgID: b.req.ID, Group: b.pollAddrs,
			Duration: tm.BatchDuration(n, b.i),
		}
	}
	// All RTS/CTS pairs done.
	if !b.anyCTS {
		// "else /* no CTS was received */ s backs off and starts the
		// sender's protocol again" (Figure 3).
		return b.retry(st, env)
	}
	b.ph = raking
	b.i = 0
	b.checkAt = now + sim.Slot(tm.Data) // first RAK right after the data
	return &frames.Frame{
		Type: frames.Data, Dst: frames.BroadcastAddr,
		MsgID: b.req.ID, Group: dcf.GroupAddrs(b.S),
		Duration: n * (tm.Control + tm.Control), // the RAK/ACK tail
	}
}

// tickRaking sends the next RAK, or — after the last ACK window — closes
// the round.
func (b *Batch) tickRaking(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	tm := st.Config().Timing
	n := len(b.poll)
	if b.i < n {
		target := b.poll[b.i]
		b.i++
		b.checkAt = now + 2 // RAK this slot, ACK next, decide after
		return &frames.Frame{
			Type: frames.RAK, Dst: frames.Addr(target),
			MsgID: b.req.ID, Group: b.pollAddrs,
			Duration: tm.RAKDuration(n, b.i),
		}
	}
	// Round complete: retire the acknowledged receivers and report the
	// residual — how many intended receivers the next round (if any)
	// still has to reach.
	acked := make([]int, 0, len(b.acked))
	for _, id := range b.poll {
		if b.acked[id] {
			acked = append(acked, id)
		}
	}
	b.S = b.pick.Update(env, b.S, acked)
	env.ReportRound(b.req, len(b.S))
	if len(b.S) == 0 {
		b.ph = idle
		st.FinishRequest(env, true)
		return nil
	}
	if b.attempts >= st.Config().RetryLimit {
		b.ph = idle
		st.FinishRequest(env, false)
		return nil
	}
	// "while S ≠ ∅: call Batch_Mode_Procedure(S, S_ACK)" — each round
	// begins with its own contention phase.
	b.startRound(st, env)
	return nil
}

func (b *Batch) retry(st *dcf.Station, env *sim.Env) *frames.Frame {
	if b.attempts >= st.Config().RetryLimit {
		b.ph = idle
		st.FinishRequest(env, false)
		return nil
	}
	st.ContentionFail()
	b.startRound(st, env)
	return nil
}

// OnDeliver implements dcf.Multicaster.
func (b *Batch) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	now := env.Now()
	tm := st.Config().Timing
	addressed := rx&sim.RxAddressed != 0

	// Sender side: collect CTS during polling and ACK during raking.
	if b.req != nil && f.MsgID == b.req.ID && addressed {
		switch {
		case f.Type == frames.CTS && b.ph == polling:
			b.anyCTS = true
		case f.Type == frames.ACK && b.ph == raking:
			b.acked[int(f.Src)] = true
		}
	}

	// Receiver side (Figure 3).
	switch f.Type {
	case frames.RTS:
		if f.Group == nil || !addressed || !st.CanRespond(f, now) {
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
			Duration: f.Duration - tm.Control,
		})
	case frames.RAK:
		// The station logs member DATA itself (Station.HasData), so the
		// receiver answers a RAK only for data it holds (Figure 3).
		if !addressed || !st.HasData(f) || !st.CanRespond(f, now) {
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
			Duration: f.Duration - tm.Control,
		})
	default:
		// CTS/ACK are consumed by the sender's batch loop; DATA is
		// logged by the station; NAK plays no role in the BMMM/LAMM
		// exchange (Figure 3).
	}
}

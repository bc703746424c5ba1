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
	"slices"

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
	// It may write the result into S's storage, which the Batch owns.
	Update(env *sim.Env, S []int, acked []int) []int
}

// phase names the half of a batch round the sender is in.
type phase uint8

const (
	polling phase = iota
	raking
)

// Batch is the Batch_Mode_Procedure state machine of Figure 3, driving
// one multicast request through as many batch rounds as needed.
type Batch struct {
	pick Picker

	ph     phase
	S      []int // remaining intended receivers, the DATA frame's group
	poll   []int // stations polled this round, the RTS and RAK frames' group
	i      int   // next poll/RAK index
	anyCTS bool
	heard  []int // stations whose ACK arrived this round
	acked  []int // poll ∩ heard in poll order, handed to Update
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
// tests, the optimization census and the reference benchmarks; results
// are bit-identical to NewLAMM.
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
	b.S = append(b.S[:0], req.Dests...)
}

// OpenRound implements dcf.RoundOpener: every round — the first, each
// retry and each later batch — polls a fresh choice from the remaining
// receivers and is reported before its contention phase opens.
func (b *Batch) OpenRound(st *dcf.Station, env *sim.Env) {
	b.poll = b.pick.Poll(env, b.S)
	// The station counts a contention phase when it is won, so
	// Attempts()+1 is the 1-based ordinal of the round about to run.
	env.ReportRoundStart(st.Current(), st.Attempts()+1, len(b.poll))
}

// Won implements dcf.Multicaster: the round's first RTS.
func (b *Batch) Won(st *dcf.Station, env *sim.Env) *frames.Frame {
	b.i = 0
	b.anyCTS = false
	b.heard = slices.Grow(b.heard[:0], len(b.poll))
	b.ph = polling
	return b.tickPolling(st, env)
}

// Next implements dcf.Multicaster.
func (b *Batch) Next(st *dcf.Station, env *sim.Env) *frames.Frame {
	if b.ph == polling {
		return b.tickPolling(st, env)
	}
	return b.tickRaking(st, env)
}

// tickPolling sends the next RTS of the round, or — after the last CTS
// window — the data frame.
func (b *Batch) tickPolling(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	tm := env.Timing()
	req := st.Current()
	n := len(b.poll)
	if b.i < n {
		target := b.poll[b.i]
		b.i++
		st.WaitUntil(now + 2) // RTS this slot, CTS next, decide after
		return st.Send(&frames.Frame{
			Type: frames.RTS, Dst: frames.Addr(target),
			MsgID:    req.ID,
			Duration: tm.BatchDuration(n, b.i),
		}, b.poll)
	}
	// All RTS/CTS pairs done.
	if !b.anyCTS {
		// "else /* no CTS was received */ s backs off and starts the
		// sender's protocol again" (Figure 3).
		st.Retry(env)
		return nil
	}
	b.ph = raking
	b.i = 0
	st.WaitUntil(now + sim.Slot(tm.Data)) // first RAK right after the data
	return st.Send(&frames.Frame{
		Type: frames.Data, Dst: frames.BroadcastAddr,
		MsgID:    req.ID,
		Duration: n * (tm.Control + tm.Control), // the RAK/ACK tail
	}, b.S)
}

// tickRaking sends the next RAK, or — after the last ACK window — closes
// the round.
func (b *Batch) tickRaking(st *dcf.Station, env *sim.Env) *frames.Frame {
	now := env.Now()
	tm := env.Timing()
	req := st.Current()
	n := len(b.poll)
	if b.i < n {
		target := b.poll[b.i]
		b.i++
		st.WaitUntil(now + 2) // RAK this slot, ACK next, decide after
		return st.Send(&frames.Frame{
			Type: frames.RAK, Dst: frames.Addr(target),
			MsgID:    req.ID,
			Duration: tm.RAKDuration(n, b.i),
		}, b.poll)
	}
	// Round complete: retire the acknowledged receivers and report the
	// residual — how many intended receivers the next round (if any)
	// still has to reach.
	b.acked = slices.Grow(b.acked[:0], len(b.heard))
	for _, id := range b.poll {
		if containsInt(b.heard, id) {
			b.acked = append(b.acked, id)
		}
	}
	b.S = b.pick.Update(env, b.S, b.acked)
	env.ReportRound(req, len(b.S))
	switch {
	case len(b.S) == 0:
		st.FinishRequest(env, true)
	case st.Exhausted():
		// A round that left receivers behind spends the retry budget
		// like a failed one.
		st.FinishRequest(env, false)
	default:
		// "while S ≠ ∅: call Batch_Mode_Procedure(S, S_ACK)" — each
		// round begins with its own contention phase, at the window it
		// already has.
		st.NextRound(env)
	}
	return nil
}

// OnResponse implements dcf.Multicaster: the CTS replies while polling
// and the ACKs while raking.
func (b *Batch) OnResponse(st *dcf.Station, env *sim.Env, f *frames.Frame) {
	switch {
	case f.Type == frames.CTS && b.ph == polling:
		b.anyCTS = true
	case f.Type == frames.ACK && b.ph == raking:
		b.heard = append(b.heard, int(f.Src))
	}
}

// OnDeliver implements dcf.Multicaster: the receiver side.
func (b *Batch) OnDeliver(st *dcf.Station, env *sim.Env, f *frames.Frame, rx sim.Rx) {
	tm := env.Timing()
	addressed := rx&sim.RxAddressed != 0

	// Receiver side (Figure 3).
	switch f.Type {
	case frames.RTS:
		if f.Group == nil || !addressed || !st.CanRespond(env, f) {
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.CTS, Dst: f.Src, MsgID: f.MsgID,
			Duration: f.Duration - tm.Control,
		})
	case frames.RAK:
		// The station logs member DATA itself (Station.HasData), so the
		// receiver answers a RAK only for data it holds (Figure 3).
		if !addressed || !st.HasData(f) || !st.CanRespond(env, f) {
			return
		}
		st.Respond(env, &frames.Frame{
			Type: frames.ACK, Dst: f.Src, MsgID: f.MsgID,
			Duration: f.Duration - tm.Control,
		})
	default:
		// CTS/ACK reach the sender through OnResponse; DATA is logged
		// by the station; NAK plays no role in the BMMM/LAMM
		// exchange (Figure 3).
	}
}

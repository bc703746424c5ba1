package obs

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

func air(t frames.Type, sender int, msgID int64) sim.AiringTx {
	return sim.AiringTx{Frame: &frames.Frame{Type: t, MsgID: msgID}, Sender: sender}
}

func TestLedgerClassification(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	req := &sim.Request{ID: 7}
	l.Observe(&sim.Event{Kind: sim.EvSubmit, Req: req})

	// Slot 0: nothing anywhere — idle.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 0})
	// Slot 1: message 7 enters backoff; channel still idle — contention.
	l.Observe(&sim.Event{Kind: sim.EvContention, Req: req, Slot: 1})
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 1})
	// Slot 2: its RTS airs — backoff over, busy slot is RTS.
	l.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS, MsgID: 7}, Station: 0, Slot: 2})
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 2, Airing: []sim.AiringTx{air(frames.RTS, 0, 7)}})
	// Slot 3: CTS comes back.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 3, Airing: []sim.AiringTx{air(frames.CTS, 1, 7)}})
	// Slot 4: DATA; a concurrent spatial-reuse CTS does not demote it.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 4, Airing: []sim.AiringTx{air(frames.CTS, 5, 9), air(frames.Data, 0, 7)}})
	// Slot 5: RAK polling.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 5, Airing: []sim.AiringTx{air(frames.RAK, 0, 7)}})
	// Slot 6: ACK reply.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 6, Airing: []sim.AiringTx{air(frames.ACK, 2, 7)}})
	// Slot 7: BMW bookkeeping.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 7, Airing: []sim.AiringTx{air(frames.NAK, 2, 8)}})
	// Slot 8: overlap — collision beats everything.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 8, Airing: []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 3, 9)}, Collided: true})
	// Round one left residual receivers: message 7's later airtime is
	// retry overhead.
	l.Observe(&sim.Event{Kind: sim.EvRound, Req: req, Residual: 2, Slot: 8})
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 9, Airing: []sim.AiringTx{air(frames.Data, 0, 7)}})
	// Slot 10: a fresh message shares the slot — not pure retry.
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 10, Airing: []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 4, 11)}})

	want := map[Category]int64{
		CatIdle:       1,
		CatContention: 1,
		CatRTS:        1,
		CatCTS:        1,
		CatData:       2, // slots 4 and 10
		CatRAK:        1,
		CatACK:        1,
		CatControl:    1,
		CatCollision:  1,
		CatRetry:      1,
	}
	for _, c := range Categories() {
		if got := reg.Counter("T.airtime." + c.String()).Value(); got != want[c] {
			t.Errorf("%s = %d, want %d", c, got, want[c])
		}
	}
	snap := l.Snapshot()
	if snap.TotalSlots != 11 {
		t.Errorf("total = %d, want 11", snap.TotalSlots)
	}
	if !snap.Conserved() {
		t.Errorf("categories do not sum to total: %+v", snap)
	}
}

func TestLedgerContentionClearsOnCompleteAndAbort(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	a, b := &sim.Request{ID: 1}, &sim.Request{ID: 2}
	l.Observe(&sim.Event{Kind: sim.EvSubmit, Req: a})
	l.Observe(&sim.Event{Kind: sim.EvSubmit, Req: b})
	l.Observe(&sim.Event{Kind: sim.EvContention, Req: a, Slot: 0})
	l.Observe(&sim.Event{Kind: sim.EvContention, Req: b, Slot: 0})
	l.Observe(&sim.Event{Kind: sim.EvComplete, Req: a, Slot: 1})
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 1}) // b still contending
	l.Observe(&sim.Event{Kind: sim.EvAbort, Req: b, Reason: sim.AbortDeadline, Slot: 2})
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 2}) // nobody left — idle
	if got := reg.Counter("T.airtime.contention").Value(); got != 1 {
		t.Errorf("contention = %d, want 1", got)
	}
	if got := reg.Counter("T.airtime.idle").Value(); got != 1 {
		t.Errorf("idle = %d, want 1", got)
	}
}

func TestLedgerPerMessageAirtime(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	req := &sim.Request{ID: 3}
	l.Observe(&sim.Event{Kind: sim.EvSubmit, Req: req})
	// Five busy slots for message 3 — one of them shared by two frames of
	// the same message, which must count once.
	for s := sim.Slot(0); s < 4; s++ {
		l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: s, Airing: []sim.AiringTx{air(frames.Data, 0, 3)}})
	}
	l.Observe(&sim.Event{Kind: sim.EvSlot, Slot: 4, Airing: []sim.AiringTx{air(frames.RAK, 0, 3), air(frames.ACK, 1, 3)}, Collided: true})
	l.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 5})
	h := reg.Histogram("T.airtime_per_message")
	if h.Count() != 1 || h.Mean() != 5 {
		t.Errorf("per-message airtime: n=%d mean=%g, want n=1 mean=5", h.Count(), h.Mean())
	}
}

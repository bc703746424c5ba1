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

	// Slot 0: nothing anywhere — idle.
	l.OnSlot(0, nil, false)
	// Slot 1: message 7 enters backoff; channel still idle — contention.
	l.OnContention(req, 1)
	l.OnSlot(1, nil, false)
	// Slot 2: its RTS airs — backoff over, busy slot is RTS.
	l.OnFrameTx(&frames.Frame{Type: frames.RTS, MsgID: 7}, 0, 2)
	l.OnSlot(2, []sim.AiringTx{air(frames.RTS, 0, 7)}, false)
	// Slot 3: CTS comes back.
	l.OnSlot(3, []sim.AiringTx{air(frames.CTS, 1, 7)}, false)
	// Slot 4: DATA; a concurrent spatial-reuse CTS does not demote it.
	l.OnSlot(4, []sim.AiringTx{air(frames.CTS, 5, 9), air(frames.Data, 0, 7)}, false)
	// Slot 5: RAK polling.
	l.OnSlot(5, []sim.AiringTx{air(frames.RAK, 0, 7)}, false)
	// Slot 6: ACK reply.
	l.OnSlot(6, []sim.AiringTx{air(frames.ACK, 2, 7)}, false)
	// Slot 7: BMW bookkeeping.
	l.OnSlot(7, []sim.AiringTx{air(frames.NAK, 2, 8)}, false)
	// Slot 8: overlap — collision beats everything.
	l.OnSlot(8, []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 3, 9)}, true)
	// Round one left residual receivers: message 7's later airtime is
	// retry overhead.
	l.OnRound(req, 2, 8)
	l.OnSlot(9, []sim.AiringTx{air(frames.Data, 0, 7)}, false)
	// Slot 10: a fresh message shares the slot — not pure retry.
	l.OnSlot(10, []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 4, 11)}, false)

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
	l.OnContention(a, 0)
	l.OnContention(b, 0)
	l.OnComplete(a, 1)
	l.OnSlot(1, nil, false) // b still contending
	l.OnAbort(b, sim.AbortDeadline, 2)
	l.OnSlot(2, nil, false) // nobody left — idle
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
	// Five busy slots for message 3 — one of them shared by two frames of
	// the same message, which must count once.
	for s := sim.Slot(0); s < 4; s++ {
		l.OnSlot(s, []sim.AiringTx{air(frames.Data, 0, 3)}, false)
	}
	l.OnSlot(4, []sim.AiringTx{air(frames.RAK, 0, 3), air(frames.ACK, 1, 3)}, true)
	l.OnComplete(req, 5)
	h := reg.Histogram("T.airtime_per_message")
	if h.Count() != 1 || h.Mean() != 5 {
		t.Errorf("per-message airtime: n=%d mean=%g, want n=1 mean=5", h.Count(), h.Mean())
	}
}

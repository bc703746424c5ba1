package mac

import (
	"math/rand"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

func TestBackoffImmediateWhenIdle(t *testing.T) {
	b := NewBackoff(16, 256)
	rng := rand.New(rand.NewSource(1))
	b.Begin()
	if !b.Tick(false, rng) {
		t.Error("idle medium on first sense must clear to send immediately")
	}
	if b.Active() {
		t.Error("machine should be inactive after clearing")
	}
}

func TestBackoffDefersWhenBusy(t *testing.T) {
	b := NewBackoff(4, 256)
	rng := rand.New(rand.NewSource(2))
	b.Begin()
	if b.Tick(true, rng) {
		t.Fatal("busy medium must defer")
	}
	// Stay busy: never clears.
	for i := 0; i < 10; i++ {
		if b.Tick(true, rng) {
			t.Fatal("cleared while busy")
		}
	}
	// Now idle: must clear within cw slots (counter drawn in [0, cw)).
	cleared := -1
	for i := 0; i < 8; i++ {
		if b.Tick(false, rng) {
			cleared = i
			break
		}
	}
	if cleared < 0 {
		t.Fatal("never cleared after medium went idle")
	}
	if cleared >= 4 {
		t.Errorf("cleared after %d idle slots, window is 4", cleared)
	}
}

func TestBackoffFreezesDuringBusy(t *testing.T) {
	// Force a deterministic nonzero counter by trying seeds.
	for seed := int64(0); seed < 50; seed++ {
		b := NewBackoff(8, 256)
		rng := rand.New(rand.NewSource(seed))
		b.Begin()
		b.Tick(true, rng) // initial sense: busy → await idle
		if b.Tick(false, rng) {
			continue // drew 0; pick another seed
		}
		// Counter ≥ 1 now. Interleave busy slots: they must not decrement.
		idleNeeded := 0
		for i := 0; i < 1000; i++ {
			if i%2 == 0 {
				if b.Tick(true, rng) {
					t.Fatal("cleared on a busy slot")
				}
				continue
			}
			idleNeeded++
			if b.Tick(false, rng) {
				if idleNeeded < 1 {
					t.Fatal("cleared too early")
				}
				return
			}
		}
		t.Fatal("never cleared")
	}
	t.Skip("all seeds drew 0; statistically impossible")
}

func TestBackoffFailWidensWindowBounded(t *testing.T) {
	b := NewBackoff(4, 16)
	if b.Window() != 4 {
		t.Fatalf("initial window = %d", b.Window())
	}
	b.Fail()
	if b.Window() != 8 {
		t.Errorf("after one failure window = %d, want 8", b.Window())
	}
	b.Fail()
	b.Fail()
	b.Fail()
	if b.Window() != 16 {
		t.Errorf("window must cap at CWMax: %d", b.Window())
	}
	b.Reset()
	if b.Window() != 4 || b.Active() {
		t.Error("Reset must restore CWMin and deactivate")
	}
}

func TestBackoffInactiveTicksReturnFalse(t *testing.T) {
	b := NewBackoff(4, 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		if b.Tick(false, rng) {
			t.Fatal("inactive machine must never clear")
		}
	}
}

func TestBackoffDegenerateWindow(t *testing.T) {
	b := NewBackoff(0, 0) // clamped to 1
	rng := rand.New(rand.NewSource(4))
	b.Begin()
	b.Tick(true, rng) // busy first sense
	if !b.Tick(false, rng) {
		t.Error("window 1 always draws 0 and clears on first idle slot")
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Pop() != nil || q.Len() != 0 {
		t.Error("empty queue misbehaves")
	}
	a := &sim.Request{ID: 1, Deadline: 100}
	b := &sim.Request{ID: 2, Deadline: 100}
	q.Push(a)
	q.Push(b)
	if q.Len() != 2 {
		t.Error("len wrong")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Error("FIFO order broken")
	}
}

func TestQueueDropExpired(t *testing.T) {
	var q Queue
	var aborted []int64
	q.Push(&sim.Request{ID: 1, Deadline: 10})
	q.Push(&sim.Request{ID: 2, Deadline: 50})
	q.Push(&sim.Request{ID: 3, Deadline: 5})
	q.DropExpired(20, func(r *sim.Request) { aborted = append(aborted, r.ID) })
	if q.Len() != 1 || q.reqs[0].ID != 2 {
		t.Errorf("queue after expiry: len=%d", q.Len())
	}
	if len(aborted) != 2 || aborted[0] != 1 || aborted[1] != 3 {
		t.Errorf("aborted = %v", aborted)
	}
	// nil callback must not crash.
	q.Push(&sim.Request{ID: 4, Deadline: 1})
	q.DropExpired(100, nil)
	if q.Len() != 0 {
		t.Error("expired requests remain")
	}
}

// TestQueuePopPreservesCapacity guards the allocation fix in Pop: after
// popping, pushing again must not grow the backing array.
func TestQueuePopPreservesCapacity(t *testing.T) {
	var q Queue
	for burst := 0; burst < 3; burst++ {
		q.Push(&sim.Request{ID: 1, Deadline: 100})
		q.Push(&sim.Request{ID: 2, Deadline: 100})
		if q.Pop() == nil || q.Pop() == nil {
			t.Fatal("pop returned nil from non-empty queue")
		}
	}
	if got := cap(q.reqs); got > 2 {
		t.Fatalf("backing array grew to %d across push/pop bursts, want <= 2", got)
	}
}

func TestResponderDelivery(t *testing.T) {
	var r Responder
	f := frames.Frame{Type: frames.CTS, MsgID: 7}
	r.ScheduleAt(5, &f)
	var out frames.Frame
	if r.Due(4, nil, &out) {
		t.Error("frame delivered early")
	}
	if !r.Pending(4) {
		t.Error("Pending should see the scheduled frame")
	}
	if !r.Due(5, nil, &out) || out.Type != f.Type || out.MsgID != f.MsgID {
		t.Errorf("Due(5) = %v", out)
	}
	if r.Due(5, nil, &out) {
		t.Error("frame delivered twice")
	}
}

func TestResponderDropsStale(t *testing.T) {
	var r Responder
	r.ScheduleAt(5, &frames.Frame{Type: frames.CTS})
	var dropped []frames.Type
	var out frames.Frame
	if r.Due(7, func(f *frames.Frame) { dropped = append(dropped, f.Type) }, &out) {
		t.Error("stale response must be dropped, not sent late")
	}
	if len(dropped) != 1 || dropped[0] != frames.CTS {
		t.Errorf("dropped = %v, want [CTS]", dropped)
	}
	if r.Pending(7) {
		t.Error("stale response still pending")
	}
}

func TestResponderMultiple(t *testing.T) {
	var r Responder
	r.ScheduleAt(3, &frames.Frame{Type: frames.CTS})
	r.ScheduleAt(4, &frames.Frame{Type: frames.ACK})
	var out frames.Frame
	if !r.Due(3, nil, &out) || out.Type != frames.CTS {
		t.Errorf("Due(3) = %v", out)
	}
	if !r.Due(4, nil, &out) || out.Type != frames.ACK {
		t.Errorf("Due(4) = %v", out)
	}
	r.ScheduleAt(9, &frames.Frame{Type: frames.NAK})
	r.Clear()
	if r.Pending(0) {
		t.Error("Clear left responses pending")
	}
}

// TestResponderMissingStorage pins the per-entry Missing storage: a
// scheduled frame's list is a copy in the entry's own storage, entries
// never share it, and a removed entry's storage is reused without
// allocating.
func TestResponderMissingStorage(t *testing.T) {
	var r Responder
	src := []int{4}
	a := r.ScheduleAt(3, &frames.Frame{Type: frames.CTS, Missing: src})
	src[0] = 99
	if len(a.Missing) != 1 || a.Missing[0] != 4 {
		t.Fatalf("scheduled Missing = %v, want a copy [4]", a.Missing)
	}
	b := r.ScheduleAt(4, &frames.Frame{Type: frames.CTS})
	b.Missing = append(b.Missing, 5)
	r.CancelIf(func(f *frames.Frame) bool { return f.Type == frames.CTS && len(f.Missing) == 1 && f.Missing[0] == 4 })
	var out frames.Frame
	if !r.Due(4, nil, &out) || len(out.Missing) != 1 || out.Missing[0] != 5 {
		t.Fatalf("Due(4) = %v, want Missing [5]", out)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f := r.ScheduleAt(10, &frames.Frame{Type: frames.CTS})
		f.Missing = append(f.Missing, 6)
		r.ScheduleAt(11, &frames.Frame{Type: frames.ACK})
		if !r.Due(10, nil, &out) || out.Missing[0] != 6 || !r.Due(11, nil, &out) {
			t.Fatal("rescheduled frames not due")
		}
	})
	if allocs != 0 {
		t.Errorf("reusing the Responder allocated %.1f times per round", allocs)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.CWMin <= 0 || c.CWMax < c.CWMin || c.RetryLimit <= 0 {
		t.Errorf("bad defaults: %+v", c)
	}
}

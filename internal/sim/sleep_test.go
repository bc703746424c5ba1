package sim

// Tests of the idle-station scheduler: quiescent Sleeper MACs are
// skipped by the tick loop, woken on arrivals and deliveries, and find
// on waking the idle run they would have counted had they ticked every
// slot.

import (
	"testing"

	"relmac/internal/frames"
)

// sleepyMAC is a Sleeper test double: it records every Tick slot with
// the idle run Env.IdleFor reports there, and exposes its quiescence as
// a settable flag.
type sleepyMAC struct {
	ticked    []Slot
	runs      []int // parallel to ticked
	delivered int
	quiet     bool
	// wakeOnDeliver makes the station non-quiescent once it has
	// received a frame, modelling a receiver-side obligation.
	wakeOnDeliver bool
}

func (m *sleepyMAC) Tick(env *Env) *frames.Frame {
	m.ticked = append(m.ticked, env.Now())
	m.runs = append(m.runs, idleRunOf(env))
	return nil
}

// runAt returns the idle run the MAC saw at its tick in slot t, or -1
// if it did not tick then.
func (m *sleepyMAC) runAt(t Slot) int {
	for k, s := range m.ticked {
		if s == t {
			return m.runs[k]
		}
	}
	return -1
}

// idleRunOf returns the longest n for which env.IdleFor(n) holds.
func idleRunOf(env *Env) int {
	n := 0
	for env.IdleFor(n + 1) {
		n++
	}
	return n
}
func (m *sleepyMAC) Deliver(env *Env, f *frames.Frame, rx Rx) { m.delivered++ }
func (m *sleepyMAC) Submit(env *Env, req *Request)            {}
func (m *sleepyMAC) Quiescent(after Slot) bool {
	if m.wakeOnDeliver && m.delivered > 0 {
		return false
	}
	return m.quiet
}

// oneShot releases a single request at a fixed slot.
type oneShot struct {
	at  Slot
	req *Request
}

func (s *oneShot) Arrivals(now Slot) []*Request {
	if now == s.at {
		return []*Request{s.req}
	}
	return nil
}

func TestQuiescentStationSkippedAndWokenByArrival(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	e.SetMAC(0, newScriptMAC())
	sleepy := &sleepyMAC{quiet: true}
	e.SetMAC(1, sleepy)

	e.Run(10, nil)
	if len(sleepy.ticked) != 1 || sleepy.ticked[0] != 0 {
		t.Fatalf("quiescent station ticked at %v, want only slot 0", sleepy.ticked)
	}

	// An arrival at slot 15 wakes it. No busy slot fell inside the slept
	// stretch (slots 1–14), so its idle run at slot 15 covers every slot
	// since slot 0: 16.
	sleepy.quiet = false
	src := &oneShot{at: 15, req: &Request{Src: 1, Kind: Broadcast, Deadline: 1000}}
	e.Run(10, src)
	if got := sleepy.runAt(15); got != 16 {
		t.Fatalf("idle run at wake slot 15 = %d, want 16", got)
	}
	want := []Slot{0, 15, 16, 17, 18, 19}
	if len(sleepy.ticked) != len(want) {
		t.Fatalf("ticked = %v, want %v", sleepy.ticked, want)
	}
	for i, s := range want {
		if sleepy.ticked[i] != s {
			t.Fatalf("ticked = %v, want %v", sleepy.ticked, want)
		}
	}
}

func TestWakeIdleRunExcludesBusySlots(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	sender := newScriptMAC()
	// A data frame at slot 2 occupies slots 2–6; the neighbor senses the
	// carrier busy in slots 3–6 (carrier sense sees transmissions begun
	// in earlier slots).
	sender.at(2, ctl(frames.Data, 0, 1))
	e.SetMAC(0, sender)
	sleepy := &sleepyMAC{quiet: true}
	e.SetMAC(1, sleepy)

	src := &oneShot{at: 10, req: &Request{Src: 1, Kind: Broadcast, Deadline: 1000}}
	e.Run(12, src)
	if sleepy.delivered != 1 {
		t.Fatalf("sleeping receiver missed the data frame: delivered = %d", sleepy.delivered)
	}
	// Woken at slot 10; the last busy slot was 6, so the idle run at
	// slot 10 is 4 slots (7, 8, 9, 10).
	if got := sleepy.runAt(10); got != 4 {
		t.Fatalf("idle run at wake slot 10 = %d, want 4", got)
	}
}

func TestDeliveryWakesReceiverWithObligation(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	sender := newScriptMAC()
	sender.at(2, ctl(frames.Data, 0, 1))
	e.SetMAC(0, sender)
	sleepy := &sleepyMAC{quiet: true, wakeOnDeliver: true}
	e.SetMAC(1, sleepy)

	e.Run(9, nil)
	// The data frame completes at the end of slot 6 and leaves the
	// receiver non-quiescent, so it must resume ticking at slot 7 with an
	// idle run of 1 (slot 6 itself was busy).
	if got := sleepy.runAt(7); got != 1 {
		t.Fatalf("receiver at slot 7: idle run %d (ticked %v), want a tick with run 1", got, sleepy.ticked)
	}
}

func TestReferencePathTicksEverySlot(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp, Reference: true})
	e.SetMAC(0, newScriptMAC())
	sleepy := &sleepyMAC{quiet: true}
	e.SetMAC(1, sleepy)
	e.Run(8, nil)
	if len(sleepy.ticked) != 8 {
		t.Fatalf("reference path ticked %d slots, want all 8 (idle-skip must be off)", len(sleepy.ticked))
	}
}

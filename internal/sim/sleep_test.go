package sim

// Tests of the idle-station scheduler: quiescent Sleeper MACs are
// skipped by the tick loop, woken on arrivals and deliveries, and handed
// the exact idle run their channel history missed.

import (
	"testing"

	"relmac/internal/frames"
)

// sleepyMAC is a Sleeper test double: it records every Tick slot, every
// absolute Wake idle run and every additive WakeExtend, and exposes its
// quiescence as a settable flag.
type sleepyMAC struct {
	ticked    []Slot
	wakes     []int
	extends   []int
	delivered int
	quiet     bool
	// wakeOnDeliver makes the station non-quiescent once it has
	// received a frame, modelling a receiver-side obligation.
	wakeOnDeliver bool
}

func (m *sleepyMAC) Tick(env *Env) *frames.Frame {
	m.ticked = append(m.ticked, env.Now())
	return nil
}
func (m *sleepyMAC) Deliver(env *Env, f *frames.Frame, rx Rx) { m.delivered++ }
func (m *sleepyMAC) Submit(env *Env, req *Request)            {}
func (m *sleepyMAC) Quiescent(after Slot) bool {
	if m.wakeOnDeliver && m.delivered > 0 {
		return false
	}
	return m.quiet
}
func (m *sleepyMAC) Wake(idleRun int)       { m.wakes = append(m.wakes, idleRun) }
func (m *sleepyMAC) WakeExtend(skipped int) { m.extends = append(m.extends, skipped) }

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

	// An arrival at slot 15 must wake it with the additive restore: no
	// busy slot fell inside the slept stretch (slots 1–14), so the MAC's
	// retained streak — it observed slot 0 itself — is extended by the
	// 14 skipped slots rather than overwritten.
	sleepy.quiet = false
	src := &oneShot{at: 15, req: &Request{Src: 1, Kind: Broadcast, Deadline: 1000}}
	e.Run(10, src)
	if len(sleepy.extends) != 1 || sleepy.extends[0] != 14 {
		t.Fatalf("extends = %v, want [14]", sleepy.extends)
	}
	if len(sleepy.wakes) != 0 {
		t.Fatalf("wakes = %v, want none (idle span uses the additive restore)", sleepy.wakes)
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
	// Woken at slot 10; the last busy slot was 6, so the idle streak
	// through slot 9 is 3 slots (7, 8, 9).
	if len(sleepy.wakes) != 1 || sleepy.wakes[0] != 3 {
		t.Fatalf("wakes = %v, want [3]", sleepy.wakes)
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
	// receiver non-quiescent, so it must resume ticking at slot 7 with a
	// zero idle run (slot 6 itself was busy).
	if len(sleepy.wakes) != 1 || sleepy.wakes[0] != 0 {
		t.Fatalf("wakes = %v, want [0]", sleepy.wakes)
	}
	found := false
	for _, s := range sleepy.ticked {
		if s == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("receiver did not resume ticking at slot 7: ticked = %v", sleepy.ticked)
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
	if len(sleepy.wakes) != 0 || len(sleepy.extends) != 0 {
		t.Fatalf("reference path issued wakes: %v / extends: %v", sleepy.wakes, sleepy.extends)
	}
}

package sim

import (
	"fmt"
	"strings"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
)

// recSlotObs records one line per slot: the airing frames (type@sender,
// in registration order) and the collision flag.
type recSlotObs struct {
	lines []string
}

func (r *recSlotObs) Kinds() KindSet { return Kinds(EvSlot, EvIdleSpan) }

// Observe records a skipped stretch as the per-slot lines it stands
// for.
func (r *recSlotObs) Observe(ev *Event) {
	if ev.Kind == EvIdleSpan {
		for t := ev.Start; t <= ev.End; t++ {
			r.slot(t, nil, false)
		}
		return
	}
	r.slot(ev.Slot, ev.Airing, ev.Collided)
}

func (r *recSlotObs) slot(now Slot, airing []AiringTx, collided bool) {
	parts := make([]string, 0, len(airing))
	for _, tx := range airing {
		parts = append(parts, fmt.Sprintf("%s@%d[%d-%d]", tx.Frame.Type, tx.Sender, tx.Start, tx.End))
	}
	r.lines = append(r.lines, fmt.Sprintf("%d %s c=%v", now, strings.Join(parts, ","), collided))
}

func TestSlotObserverSeesAiringAndIdle(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	rec := &recSlotObs{}
	e, macs := engineWithScripts(t, tp, Config{Observers: []Observer{rec}})
	macs[0].at(1, ctl(frames.Data, 0, 1)) // airs slots 1..5
	e.Run(7, nil)
	want := []string{
		"0  c=false",
		"1 DATA@0[1-5] c=false",
		"2 DATA@0[1-5] c=false",
		"3 DATA@0[1-5] c=false",
		"4 DATA@0[1-5] c=false",
		"5 DATA@0[1-5] c=false",
		"6  c=false",
	}
	if len(rec.lines) != len(want) {
		t.Fatalf("got %d slot callbacks, want %d: %v", len(rec.lines), len(want), rec.lines)
	}
	for i := range want {
		if rec.lines[i] != want[i] {
			t.Errorf("slot %d: got %q, want %q", i, rec.lines[i], want[i])
		}
	}
}

func TestSlotObserverCollisionFlag(t *testing.T) {
	// Hidden terminals: 0 and 2 collide at 1.
	tp := lineTopo(3, 0.1, 0.15)
	rec := &recSlotObs{}
	e, macs := engineWithScripts(t, tp, Config{Observers: []Observer{rec}})
	macs[0].at(0, ctl(frames.RTS, 0, 1))
	macs[2].at(0, ctl(frames.RTS, 2, 1))
	e.Run(2, nil)
	if rec.lines[0] != "0 RTS@0[0-0],RTS@2[0-0] c=true" {
		t.Errorf("collision slot: got %q", rec.lines[0])
	}
	if !strings.HasSuffix(rec.lines[1], "c=false") {
		t.Errorf("post-collision slot flagged: %q", rec.lines[1])
	}
}

func TestSlotObserverHalfDuplexOverlapFlagged(t *testing.T) {
	// Node 1 transmits while 0 and 2 both send to it: 1 is deaf (half
	// duplex) but two signals still overlapped at its radio — collided.
	tp := lineTopo(3, 0.1, 0.15)
	rec := &recSlotObs{}
	e, macs := engineWithScripts(t, tp, Config{Observers: []Observer{rec}})
	macs[0].at(0, ctl(frames.CTS, 0, 1))
	macs[1].at(0, ctl(frames.CTS, 1, 0))
	macs[2].at(0, ctl(frames.CTS, 2, 1))
	e.Run(1, nil)
	if !strings.HasSuffix(rec.lines[0], "c=true") {
		t.Errorf("overlap-at-transmitter slot not flagged: %q", rec.lines[0])
	}
}

func TestSlotObserverMutualTransmissionNotCollision(t *testing.T) {
	// Both stations transmit at each other: each hears exactly one
	// arrival, lost to half-duplex deafness rather than signal overlap,
	// so the collision flag stays clear.
	tp := lineTopo(2, 0.1, 0.15)
	rec := &recSlotObs{}
	e, macs := engineWithScripts(t, tp, Config{Observers: []Observer{rec}})
	macs[0].at(0, ctl(frames.CTS, 0, 1))
	macs[1].at(0, ctl(frames.CTS, 1, 0))
	e.Run(1, nil)
	if !strings.HasSuffix(rec.lines[0], "c=false") {
		t.Errorf("mutual transmission slot flagged as collision: %q", rec.lines[0])
	}
}

func TestSlotObserverSingleArrivalAtTransmitterNotCollision(t *testing.T) {
	// Node 1 transmits while node 0's lone frame arrives: the frame is
	// lost to half duplex, but only one signal was in the air at node 1 —
	// no physical overlap, so the collision flag stays clear.
	tp := lineTopo(3, 0.1, 0.15) // 0-1 and 1-2 in range; 0-2 not
	rec := &recSlotObs{}
	e, macs := engineWithScripts(t, tp, Config{Observers: []Observer{rec}})
	macs[0].at(0, ctl(frames.CTS, 0, 1))
	macs[1].at(0, ctl(frames.CTS, 1, 2))
	e.Run(1, nil)
	// Node 1 hears only node 0 (node 2 sends nothing); node 2 hears only
	// node 1. No station had two arrivals.
	if !strings.HasSuffix(rec.lines[0], "c=false") {
		t.Errorf("single-arrival half-duplex slot flagged as collision: %q", rec.lines[0])
	}
}

func TestSlotObserverBitIdentical(t *testing.T) {
	// Attaching a slot observer must not perturb the simulation: same
	// seed, same outcomes, with and without the hook.
	run := func(attach bool) []string {
		tp := lineTopo(3, 0.1, 0.15)
		// Capture draws on the engine PRNG where the DATA and CTS
		// collide at node 1; the erasures come from their own stream.
		imp := newLossyLinks(0.5, 6)
		cfg := Config{Seed: 5, Capture: capture.ZorziRao{}, Impairment: imp}
		if attach {
			cfg.Observers = []Observer{&recSlotObs{}}
		}
		e, macs := engineWithScripts(t, tp, cfg)
		macs[0].at(0, ctl(frames.Data, 0, 1)).at(7, ctl(frames.RTS, 0, 1))
		macs[2].at(3, ctl(frames.CTS, 2, 1))
		e.Run(12, nil)
		if imp.erased == 0 || !drewEnginePRNG(e, cfg.Seed) {
			t.Fatalf("vacuous run: %d erasures, engine PRNG drawn %v", imp.erased, drewEnginePRNG(e, cfg.Seed))
		}
		return macs[1].received
	}
	with, without := run(true), run(false)
	if fmt.Sprint(with) != fmt.Sprint(without) {
		t.Errorf("slot observer perturbed the run:\n  with:    %v\n  without: %v", with, without)
	}
}

package sim

// Tests of the event clock: when every attached MAC sleeps and the air
// is clear, Run jumps straight to the next scheduled arrival, wake
// obligation or run target instead of ticking empty slots, and the jump
// is invisible to MACs, sources and observers.

import (
	"testing"

	"relmac/internal/frames"
)

// slotSource is an EventSource test double releasing requests at fixed
// slots and counting every Arrivals consultation.
type slotSource struct {
	at    map[Slot][]*Request
	keys  []Slot // ascending
	calls []Slot
}

func newSlotSource() *slotSource { return &slotSource{at: map[Slot][]*Request{}} }

func (s *slotSource) add(t Slot, req *Request) {
	s.at[t] = append(s.at[t], req)
	i := 0
	for i < len(s.keys) && s.keys[i] < t {
		i++
	}
	if i == len(s.keys) || s.keys[i] != t {
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = t
	}
}

func (s *slotSource) Arrivals(now Slot) []*Request {
	s.calls = append(s.calls, now)
	return s.at[now]
}

func (s *slotSource) NextArrival(after Slot) (Slot, bool) {
	for _, t := range s.keys {
		if t >= after {
			return t, true
		}
	}
	return 0, false
}

// spanRecorder is a slot observer test double recording per-slot
// events and bulk spans separately.
type spanRecorder struct {
	slots []Slot
	spans [][2]Slot
}

func (r *spanRecorder) Kinds() KindSet { return Kinds(EvSlot, EvIdleSpan) }

func (r *spanRecorder) Observe(ev *Event) {
	if ev.Kind == EvIdleSpan {
		r.spans = append(r.spans, [2]Slot{ev.Start, ev.End})
	} else {
		r.slots = append(r.slots, ev.Slot)
	}
}

func TestEventClockSkipsWholeIdleRun(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	rec := &spanRecorder{}
	e := New(Config{Topo: tp, Observers: []Observer{rec}})
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)

	e.Run(100, nil)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// Both stations tick slot 0, sleep, and the rest of the run is one
	// bulk idle span.
	for name, m := range map[string]*sleepyMAC{"a": a, "b": b} {
		if len(m.ticked) != 1 || m.ticked[0] != 0 {
			t.Fatalf("%s ticked %v, want only slot 0", name, m.ticked)
		}
	}
	if len(rec.spans) != 1 || rec.spans[0] != [2]Slot{1, 99} {
		t.Fatalf("spans = %v, want [[1 99]]", rec.spans)
	}
	if len(rec.slots) != 1 || rec.slots[0] != 0 {
		t.Fatalf("per-slot callbacks = %v, want only slot 0", rec.slots)
	}
}

// spanCounter is a per-slot recorder that also counts the bulk spans it
// expanded.
type spanCounter struct {
	recSlotObs
	spans int
}

func (c *spanCounter) Observe(ev *Event) {
	if ev.Kind == EvIdleSpan {
		c.spans++
	}
	c.recSlotObs.Observe(ev)
}

// TestEventClockSpansMatchReferenceSlots pins the EvIdleSpan contract:
// the skipped stretches, expanded slot by slot, are exactly the EvSlot
// events a per-slot reference run delivers — every slot once, in order.
func TestEventClockSpansMatchReferenceSlots(t *testing.T) {
	run := func(reference bool) *spanCounter {
		tp := lineTopo(2, 0.1, 0.15)
		rec := &spanCounter{}
		e := New(Config{Topo: tp, Reference: reference, Observers: []Observer{rec}})
		e.SetMAC(0, &sleepyMAC{quiet: true})
		e.SetMAC(1, &sleepyMAC{quiet: true})
		src := newSlotSource()
		src.add(20, &Request{Src: 0, Kind: Broadcast, Deadline: 1000})
		e.Run(50, src)
		return rec
	}
	opt, ref := run(false), run(true)
	if opt.spans != 2 || ref.spans != 0 {
		t.Fatalf("spans: optimized %d, reference %d; want 2 ([1,19] and [21,49]) and 0", opt.spans, ref.spans)
	}
	if len(ref.lines) != 50 {
		t.Fatalf("reference saw %d slots, want 50", len(ref.lines))
	}
	for i := range ref.lines {
		if i >= len(opt.lines) || opt.lines[i] != ref.lines[i] {
			t.Fatalf("slot %d: optimized %v, reference %q", i, opt.lines[i:min(i+1, len(opt.lines))], ref.lines[i])
		}
	}
	if len(opt.lines) != len(ref.lines) {
		t.Fatalf("optimized saw %d slots, reference %d", len(opt.lines), len(ref.lines))
	}
}

func TestEventClockStopsAtScheduledArrival(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)
	src := newSlotSource()
	src.add(50, &Request{Src: 1, Kind: Broadcast, Deadline: 1000})

	e.Run(100, src)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// The source must be consulted only on simulated slots: slot 0
	// (everyone still awake) and slot 50 (the announced arrival).
	want := []Slot{0, 50}
	if len(src.calls) != len(want) || src.calls[0] != 0 || src.calls[1] != 50 {
		t.Fatalf("Arrivals consulted at %v, want %v", src.calls, want)
	}
	if len(b.ticked) != 2 || b.ticked[0] != 0 || b.ticked[1] != 50 {
		t.Fatalf("receiver ticked %v, want [0 50]", b.ticked)
	}
	// The skipped stretch was idle throughout, so the woken receiver's
	// idle run covers slots 0–50.
	if got := b.runAt(50); got != 51 {
		t.Fatalf("idle run at wake slot 50 = %d, want 51", got)
	}
}

func TestEventClockAirborneFramePreventsSkip(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	// Station 0 is a scripted sender: not a Sleeper, so the network is
	// never whole-asleep while it is attached — but the point here is
	// the tx table: its data frame keeps txN non-zero through slot 6.
	sender := newScriptMAC()
	sender.at(2, ctl(frames.Data, 0, 1))
	e.SetMAC(0, sender)
	sleepy := &sleepyMAC{quiet: true}
	e.SetMAC(1, sleepy)

	e.Run(12, nil)
	if sleepy.delivered != 1 {
		t.Fatalf("delivered = %d, want the data frame", sleepy.delivered)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12", e.Now())
	}
}

// downWindow is a crash-only Impairment test double: the given station
// is down for [from, to) and announces both transitions.
type downWindow struct {
	station  int
	from, to Slot
}

func (d *downWindow) Crash(station int, now Slot) (bool, Slot) {
	if station != d.station {
		return false, Never
	}
	switch {
	case now < d.from:
		return false, d.from
	case now < d.to:
		return true, d.to
	default:
		return false, Never
	}
}

func (d *downWindow) Erase(sender int, recv []int, lost, down []bool, now Slot) {
	for k, j := range recv {
		if down[j] {
			lost[k] = true
		}
	}
}

// downRecorder is a slot observer recording, at every simulated slot,
// whether the watched station is down.
type downRecorder struct {
	e       *Engine
	station int
	at      map[Slot]bool
}

func (r *downRecorder) Kinds() KindSet { return Kinds(EvSlot) }

func (r *downRecorder) Observe(ev *Event) {
	if ev.Kind == EvSlot {
		r.at[ev.Slot] = r.e.down[r.station]
	}
}

func TestEventClockCrashTransitionsAreWakeObligations(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	imp := &downWindow{station: 1, from: 20, to: 30}
	rec := &spanRecorder{}
	downs := &downRecorder{station: 1, at: map[Slot]bool{}}
	e := New(Config{Topo: tp, Impairment: imp, Observers: []Observer{rec, downs}})
	downs.e = e
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)

	e.Run(100, nil)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// Station 1 ticks slot 0 and sleeps for good: a crash transition
	// flips its down state but does not wake it.
	if len(b.ticked) != 1 || b.ticked[0] != 0 {
		t.Fatalf("crashed station ticked %v, want [0]", b.ticked)
	}
	// The clock stops at both transitions and flips the state there.
	if len(rec.spans) != 3 || rec.spans[0] != [2]Slot{1, 19} ||
		rec.spans[1] != [2]Slot{21, 29} || rec.spans[2] != [2]Slot{31, 99} {
		t.Fatalf("spans = %v, want [[1 19] [21 29] [31 99]]", rec.spans)
	}
	want := map[Slot]bool{0: false, 20: true, 30: false}
	if len(downs.at) != len(want) {
		t.Fatalf("simulated slots %v, want 0, 20 and 30", downs.at)
	}
	for s, d := range want {
		if got, ok := downs.at[s]; !ok || got != d {
			t.Fatalf("slot %d: down %v (simulated %v), want %v", s, got, ok, d)
		}
	}
	// Slots 0–100 less the ten down slots 20–29, none busy.
	if env := e.EnvOf(1); !env.IdleFor(91) || env.IdleFor(92) {
		t.Fatalf("idle run at slot 100 = %d, want 91", idleRunOf(env))
	}
}

// TestEventClockPRNGNeutral proves a skipped run leaves the engine PRNG
// exactly where per-slot stepping leaves it: the draw after the run
// must agree between a skipping engine and a reference engine fed the
// same seed and source.
func TestEventClockPRNGNeutral(t *testing.T) {
	run := func(reference bool) float64 {
		tp := lineTopo(2, 0.1, 0.15)
		e := New(Config{Topo: tp, Seed: 42, Reference: reference})
		e.SetMAC(0, &sleepyMAC{quiet: true})
		e.SetMAC(1, &sleepyMAC{quiet: true})
		src := newSlotSource()
		src.add(40, &Request{Src: 0, Kind: Broadcast, Deadline: 1000})
		e.Run(200, src)
		return e.Rand().Float64()
	}
	if opt, ref := run(false), run(true); opt != ref {
		t.Fatalf("post-run PRNG diverged: optimized %v, reference %v", opt, ref)
	}
}

package sim

// Tests of the engine's own observer fan-out: every observer sees every
// event of the kinds it subscribed to exactly once, in registration
// order, and a panicking attachment names itself in the runtime
// traceback.

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"relmac/internal/frames"
)

// eventLog is the shared, ordered record of every hook callback. With
// a probe it also records each callback that ran outside PhaseObserver.
type eventLog struct {
	lines   []string
	probe   *phaseProbe
	offside []string
}

func (l *eventLog) add(name, ev string, now Slot) {
	line := fmt.Sprintf("%s:%s@%d", name, ev, now)
	l.lines = append(l.lines, line)
	if l.probe != nil && l.probe.cur != PhaseObserver {
		l.offside = append(l.offside, line+" in "+l.probe.cur.String())
	}
}

// phaseProbe is a Profiler that only remembers the current phase.
type phaseProbe struct{ cur Phase }

func (p *phaseProbe) RunStart()      { p.cur = PhaseUntracked }
func (p *phaseProbe) Enter(ph Phase) { p.cur = ph }
func (p *phaseProbe) RunEnd()        {}

// logObserver appends "name:event@slot" entries to a shared eventLog
// for the kinds it subscribed to; an idle span logs as
// "idle-span-to-<end>" at its first slot, and an event with a request
// adds the request's counts as the observer sees them:
// "{c<contentions> r<rounds> s<residual>}".
type logObserver struct {
	name  string
	log   *eventLog
	kinds KindSet
}

func (o *logObserver) Kinds() KindSet { return o.kinds }

func (o *logObserver) Observe(ev *Event) {
	name := ev.Kind.String()
	if ev.Kind == EvIdleSpan {
		name = fmt.Sprintf("%s-to-%d", name, ev.End)
	}
	if r := ev.Req; r != nil {
		name += fmt.Sprintf("{c%d r%d s%d}", r.Contentions, r.Rounds, r.Residual)
	}
	o.log.add(o.name, name, ev.Slot)
}

// allKinds subscribes to every event.
const allKinds KindSet = 1<<numKinds - 1

// reportMAC is a Sleeper that serves each submitted request through
// every Env.Report* call: on its first Tick it opens service and a
// round, contends and sends one DATA frame; on the first Tick after the
// frame left the air it closes the round, completes, aborts and drops a
// response. With no request it is quiescent.
type reportMAC struct {
	req  *Request
	sent bool
}

func (m *reportMAC) Tick(env *Env) *frames.Frame {
	switch {
	case m.req == nil || env.Transmitting():
		return nil
	case !m.sent:
		m.sent = true
		env.ReportServiceStart(m.req)
		env.ReportRoundStart(m.req, 1, 1)
		env.ReportContention(m.req)
		f := ctl(frames.Data, env.Node(), -1)
		f.MsgID = m.req.ID
		return f
	default:
		env.ReportRound(m.req, 0)
		env.ReportComplete(m.req)
		env.ReportAbort(m.req, AbortDeadline)
		env.ReportResponseDrop(ctl(frames.ACK, env.Node(), 1))
		m.req, m.sent = nil, false
		return nil
	}
}
func (m *reportMAC) Deliver(*Env, *frames.Frame, Rx) {}
func (m *reportMAC) Submit(_ *Env, req *Request)     { m.req = req }
func (m *reportMAC) Quiescent(Slot) bool             { return m.req == nil }

// reportRun attaches the hooks to a two-station run: station 0 serves
// one request arriving at slot 10, station 1 sleeps throughout, and the
// event clock skips [1,9] and [16,59].
func reportRun(cfg Config) {
	cfg.Topo = lineTopo(2, 0.1, 0.15)
	e := New(cfg)
	e.SetMAC(0, &reportMAC{})
	e.SetMAC(1, &sleepyMAC{quiet: true})
	src := newSlotSource()
	src.add(10, &Request{Src: 0, Kind: Broadcast, Dests: []int{1}, Deadline: 1000})
	e.Run(60, src)
}

// TestMultiObserverFansOutInRegistrationOrder attaches observers with
// overlapping kind sets to one list: every event reaches exactly the
// entries that declare its kind, once each, in registration order; an
// entry with an empty set is never called; each skipped stretch is one
// idle-span event; and the request counts an observer sees are the ones
// before the event. The second run keeps station 1 down, so its
// reception is lost: between them the runs emit all 14 kinds.
func TestMultiObserverFansOutInRegistrationOrder(t *testing.T) {
	service := Kinds(EvServiceStart, EvRoundStart, EvResponseDrop)
	seen := KindSet(0)
	for _, down := range []bool{false, true} {
		log := &eventLog{}
		obs := []*logObserver{
			{"all1", log, allKinds},
			{"msg", log, MessageKinds},
			{"none", log, 0},
			{"svc", log, service | Kinds(EvFrameTx)},
			{"chan", log, Kinds(EvSlot, EvIdleSpan)},
			{"rx", log, Kinds(EvFrameTx, EvRxOK, EvRxLost)},
			{"all2", log, allKinds},
		}
		cfg := Config{}
		for _, o := range obs {
			cfg.Observers = append(cfg.Observers, o)
		}
		if down {
			cfg.Impairment = &downWindow{station: 1, from: 0, to: 1000}
		}
		reportRun(cfg)

		// The engine's event stream is what the all-kinds entry saw; on
		// the clean run it is pinned in full.
		var stream []string
		for _, l := range log.lines {
			if ev, ok := strings.CutPrefix(l, "all1:"); ok {
				stream = append(stream, ev)
			}
		}
		if !down {
			want := []string{"slot@0", "idle-span-to-9@1",
				"submit{c0 r0 s1}@10", "service-start{c0 r0 s1}@10", "round-start{c0 r0 s1}@10",
				"contention{c0 r0 s1}@10", "frame-tx@10"}
			for now := 10; now <= 14; now++ {
				want = append(want, fmt.Sprintf("slot@%d", now))
			}
			want = append(want, "rx-ok@14", "data-rx@14",
				"round{c1 r0 s1}@15", "complete{c1 r1 s0}@15", "abort{c1 r1 s0}@15",
				"response-drop@15", "slot@15", "idle-span-to-59@16")
			if got := strings.Join(stream, "\n"); got != strings.Join(want, "\n") {
				t.Fatalf("engine stream:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
			}
		}
		// Its fan-out: each event to every entry declaring its kind.
		var want []string
		for _, ev := range stream {
			name := ev[:strings.IndexAny(ev, "{@")]
			if strings.HasPrefix(name, "idle-span") {
				name = "idle-span"
			}
			kind := EventKind(0)
			for kind < numKinds && kind.String() != name {
				kind++
			}
			seen |= Kinds(kind)
			for _, o := range obs {
				if o.kinds.Has(kind) {
					want = append(want, o.name+":"+ev)
				}
			}
		}
		if got := strings.Join(log.lines, "\n"); got != strings.Join(want, "\n") {
			t.Fatalf("down=%v: fan-out:\n%s\nwant:\n%s", down, got, strings.Join(want, "\n"))
		}
	}
	if seen != allKinds {
		t.Errorf("the runs emitted kinds %014b, want all %d", seen, numKinds)
	}
}

// TestHookDispatchChargedToObserverPhase: every event reaches its
// observer while the profiler's current phase is PhaseObserver,
// wherever the engine or a MAC fires it. The second run keeps station 1
// down, so its reception is lost and rx-lost fires too.
func TestHookDispatchChargedToObserverPhase(t *testing.T) {
	for _, down := range []bool{false, true} {
		probe := &phaseProbe{}
		log := &eventLog{probe: probe}
		cfg := Config{
			Observers: []Observer{&logObserver{"o", log, allKinds}},
			Profiler:  probe,
		}
		want := "o:rx-ok@14"
		if down {
			cfg.Impairment = &downWindow{station: 1, from: 0, to: 1000}
			want = "o:rx-lost@14"
		}
		reportRun(cfg)
		if got := strings.Join(log.lines, "\n"); !strings.Contains(got, want) {
			t.Fatalf("down=%v: no %s in the event stream:\n%s", down, want, got)
		}
		if len(log.offside) != 0 {
			t.Errorf("down=%v: callbacks outside observer-dispatch:\n%s",
				down, strings.Join(log.offside, "\n"))
		}
	}
}

// panicky panics on the first event of its kind.
type panicky struct{ kind EventKind }

func (p panicky) Kinds() KindSet { return Kinds(p.kind) }

func (p panicky) Observe(ev *Event) {
	if ev.Kind == p.kind {
		panic("boom")
	}
}

// TestMultiObserverPanicIdentifiesObserver pins what replaced the
// combinators' annotated re-panic: the engine dispatches with a plain
// loop, so a panicking attachment's panic leaves Run unchanged, the
// frame directly below the panic in the traceback is the attachment's
// own method, and the attachments registered before it saw the event
// while those after did not. The cases are one kind of each group: a
// message event, channel state, service detail, and a transmission.
func TestMultiObserverPanicIdentifiesObserver(t *testing.T) {
	cases := []struct {
		name string
		kind EventKind
	}{
		{"observer", EvSubmit},
		{"slot", EvSlot},
		{"lifecycle", EvServiceStart},
		{"tracer", EvFrameTx},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, after := &eventLog{}, &eventLog{}
			ks := Kinds(tc.kind)
			cfg := Config{Observers: []Observer{&logObserver{"a", before, ks}, panicky{tc.kind}, &logObserver{"b", after, ks}}}
			defer func() {
				r := recover()
				if r != "boom" {
					t.Fatalf("panic value = %v, want the attachment's own \"boom\"", r)
				}
				lines := strings.Split(string(debug.Stack()), "\n")
				top := ""
				for i, l := range lines {
					if strings.HasPrefix(l, "panic(") && i+2 < len(lines) {
						top = lines[i+2]
						break
					}
				}
				if !strings.Contains(top, "sim.panicky.Observe") {
					t.Errorf("frame below the panic = %q, want sim.panicky.Observe", top)
				}
				if n := len(before.lines); n != 1 || !strings.HasPrefix(before.lines[0], "a:"+tc.kind.String()) {
					t.Errorf("attachment before the panic saw %v, want one %s", before.lines, tc.kind)
				}
				if len(after.lines) != 0 {
					t.Errorf("attachment after the panic saw %v, want nothing", after.lines)
				}
			}()
			reportRun(cfg)
		})
	}
}

// recLifecycle records one line per service-detail event in arrival
// order.
type recLifecycle struct {
	lines []string
}

func (r *recLifecycle) Kinds() KindSet { return Kinds(EvServiceStart, EvRoundStart, EvResponseDrop) }

func (r *recLifecycle) Observe(ev *Event) {
	switch ev.Kind {
	case EvServiceStart:
		r.lines = append(r.lines, fmt.Sprintf("service msg=%d t=%d", ev.Req.ID, ev.Slot))
	case EvRoundStart:
		r.lines = append(r.lines, fmt.Sprintf("round msg=%d r=%d n=%d t=%d", ev.Req.ID, ev.Round, ev.Polled, ev.Slot))
	case EvResponseDrop:
		r.lines = append(r.lines, fmt.Sprintf("drop st=%d %s t=%d", ev.Station, ev.Frame.Type, ev.Slot))
	}
}

// TestEnvLifecycleReporting pins the Env.Report* dispatch: a kind with
// no subscriber is a no-op, a subscriber sees the arguments verbatim
// with the engine clock and the reporting station's ID attached.
func TestEnvLifecycleReporting(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)

	env := New(Config{Topo: tp}).EnvOf(0)
	env.ReportServiceStart(&Request{ID: 1}) // no subscriber: must not panic
	env.ReportRoundStart(&Request{ID: 1}, 1, 2)
	env.ReportResponseDrop(&frames.Frame{Type: frames.ACK})

	rec := &recLifecycle{}
	env = New(Config{Topo: tp, Observers: []Observer{rec}}).EnvOf(1)
	req := &Request{ID: 4}
	env.ReportServiceStart(req)
	env.ReportRoundStart(req, 2, 3)
	env.ReportResponseDrop(&frames.Frame{Type: frames.NAK})
	want := []string{"service msg=4 t=0", "round msg=4 r=2 n=3 t=0", "drop st=1 NAK t=0"}
	if fmt.Sprint(rec.lines) != fmt.Sprint(want) {
		t.Errorf("reported stream = %v, want %v", rec.lines, want)
	}
}

package sim

// Tests of the engine's own observer fan-out: every attached Observer,
// SlotObserver and LifecycleObserver sees every event exactly once, in
// registration order, and a panicking attachment names itself in the
// runtime traceback.

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

// logObserver, logSlots, logLifecycle and logTracer append
// "name:event@slot" entries to a shared eventLog.
type logObserver struct {
	name string
	log  *eventLog
}

func (o *logObserver) OnSubmit(_ *Request, now Slot)     { o.log.add(o.name, "submit", now) }
func (o *logObserver) OnContention(_ *Request, now Slot) { o.log.add(o.name, "contention", now) }
func (o *logObserver) OnFrameTx(_ *frames.Frame, _ int, now Slot) {
	o.log.add(o.name, "frame-tx", now)
}
func (o *logObserver) OnDataRx(_ int64, _ int, now Slot)   { o.log.add(o.name, "data-rx", now) }
func (o *logObserver) OnRound(_ *Request, _ int, now Slot) { o.log.add(o.name, "round", now) }
func (o *logObserver) OnComplete(_ *Request, now Slot)     { o.log.add(o.name, "complete", now) }
func (o *logObserver) OnAbort(_ *Request, _ AbortReason, now Slot) {
	o.log.add(o.name, "abort", now)
}

type logSlots struct {
	name string
	log  *eventLog
}

func (o *logSlots) OnSlot(now Slot, _ []AiringTx, _ bool) { o.log.add(o.name, "slot", now) }
func (o *logSlots) OnIdleSpan(from, to Slot) {
	o.log.add(o.name, fmt.Sprintf("span-to-%d", to), from)
}

type logLifecycle struct {
	name string
	log  *eventLog
}

func (o *logLifecycle) OnServiceStart(_ *Request, now Slot) { o.log.add(o.name, "service", now) }
func (o *logLifecycle) OnRoundStart(_ *Request, _, _ int, now Slot) {
	o.log.add(o.name, "round-start", now)
}
func (o *logLifecycle) OnResponseDrop(_ int, _ *frames.Frame, now Slot) {
	o.log.add(o.name, "drop", now)
}

type logTracer struct{ log *eventLog }

func (o *logTracer) TxStart(_ *frames.Frame, _ int, start, _ Slot) {
	o.log.add("tr", "tx-start", start)
}
func (o *logTracer) RxOK(_ *frames.Frame, _ int, now Slot)   { o.log.add("tr", "rx-ok", now) }
func (o *logTracer) RxLost(_ *frames.Frame, _ int, now Slot) { o.log.add("tr", "rx-lost", now) }

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
func (m *reportMAC) Wake(int)                        {}
func (m *reportMAC) WakeExtend(int)                  {}

// reportRun attaches the hooks to a two-station run: station 0 serves
// one request arriving at slot 10, station 1 sleeps throughout, and the
// event clock skips [1,9] and [16,59].
func reportRun(cfg Config) {
	cfg.Topo = lineTopo(2, 0.1, 0.15)
	e := New(cfg)
	e.SetMAC(0, &reportMAC{})
	e.SetMAC(1, &sleepyMAC{quiet: true})
	src := newSlotSource()
	src.add(10, &Request{ID: 7, Src: 0, Kind: Broadcast, Deadline: 1000})
	e.Run(60, src)
}

// TestMultiObserverFansOutInRegistrationOrder attaches two of each
// observer kind and a tracer to one run: every callback reaches each
// attachment exactly once, in registration order, the observers'
// OnFrameTx precedes TxStart, and each skipped stretch is one
// OnIdleSpan per slot observer.
func TestMultiObserverFansOutInRegistrationOrder(t *testing.T) {
	log := &eventLog{}
	reportRun(Config{
		Observers:     []Observer{&logObserver{"o1", log}, &logObserver{"o2", log}},
		SlotObservers: []SlotObserver{&logSlots{"s1", log}, &logSlots{"s2", log}},
		Lifecycles:    []LifecycleObserver{&logLifecycle{"l1", log}, &logLifecycle{"l2", log}},
		Tracer:        &logTracer{log},
	})

	// pair expands one event into its two attachments' entries.
	var want []string
	pair := func(kind, ev string, now Slot) {
		for _, n := range []string{"1", "2"} {
			want = append(want, fmt.Sprintf("%s%s:%s@%d", kind, n, ev, now))
		}
	}
	pair("s", "slot", 0)
	pair("s", "span-to-9", 1)
	pair("o", "submit", 10)
	pair("l", "service", 10)
	pair("l", "round-start", 10)
	pair("o", "contention", 10)
	pair("o", "frame-tx", 10)
	want = append(want, "tr:tx-start@10")
	for now := Slot(10); now <= 14; now++ {
		pair("s", "slot", now)
	}
	want = append(want, "tr:rx-ok@14")
	pair("o", "data-rx", 14)
	pair("o", "round", 15)
	pair("o", "complete", 15)
	pair("o", "abort", 15)
	pair("l", "drop", 15)
	pair("s", "slot", 15)
	pair("s", "span-to-59", 16)

	if got := strings.Join(log.lines, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("event stream:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestHookDispatchChargedToObserverPhase: every Observer,
// SlotObserver, LifecycleObserver and Tracer callback runs while the
// profiler's current phase is PhaseObserver, wherever the engine or a
// MAC fires it. The second run keeps station 1 down, so its reception
// is lost and RxLost fires too.
func TestHookDispatchChargedToObserverPhase(t *testing.T) {
	for _, down := range []bool{false, true} {
		probe := &phaseProbe{}
		log := &eventLog{probe: probe}
		cfg := Config{
			Observers:     []Observer{&logObserver{"o", log}},
			SlotObservers: []SlotObserver{&logSlots{"s", log}},
			Lifecycles:    []LifecycleObserver{&logLifecycle{"l", log}},
			Tracer:        &logTracer{log},
			Profiler:      probe,
		}
		want := "tr:rx-ok@14"
		if down {
			cfg.Impairment = &downWindow{station: 1, from: 0, to: 1000}
			want = "tr:rx-lost@14"
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

// panicky attachments panic on their first callback of one kind.
type panickyObserver struct{ nopObserver }

func (panickyObserver) OnSubmit(*Request, Slot) { panic("boom") }

type panickySlots struct{}

func (panickySlots) OnSlot(Slot, []AiringTx, bool) { panic("boom") }
func (panickySlots) OnIdleSpan(Slot, Slot)         {}

type panickyLifecycle struct{}

func (panickyLifecycle) OnServiceStart(*Request, Slot)           { panic("boom") }
func (panickyLifecycle) OnRoundStart(*Request, int, int, Slot)   {}
func (panickyLifecycle) OnResponseDrop(int, *frames.Frame, Slot) {}

// TestMultiObserverPanicIdentifiesObserver pins what replaced the
// combinators' annotated re-panic: the engine dispatches with a plain
// loop, so a panicking attachment's panic leaves Run unchanged, the
// frame directly below the panic in the traceback is the attachment's
// own method, and the attachments registered before it saw the event
// while those after did not.
func TestMultiObserverPanicIdentifiesObserver(t *testing.T) {
	cases := []struct {
		name, frame, event string
		attach             func(cfg *Config, before, after *eventLog)
	}{
		{"observer", "sim.panickyObserver.OnSubmit", "submit", func(cfg *Config, before, after *eventLog) {
			cfg.Observers = []Observer{&logObserver{"a", before}, panickyObserver{}, &logObserver{"b", after}}
		}},
		{"slot", "sim.panickySlots.OnSlot", "slot", func(cfg *Config, before, after *eventLog) {
			cfg.SlotObservers = []SlotObserver{&logSlots{"a", before}, panickySlots{}, &logSlots{"b", after}}
		}},
		{"lifecycle", "sim.panickyLifecycle.OnServiceStart", "service", func(cfg *Config, before, after *eventLog) {
			cfg.Lifecycles = []LifecycleObserver{&logLifecycle{"a", before}, panickyLifecycle{}, &logLifecycle{"b", after}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, after := &eventLog{}, &eventLog{}
			var cfg Config
			tc.attach(&cfg, before, after)
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
				if !strings.Contains(top, tc.frame) {
					t.Errorf("frame below the panic = %q, want %s", top, tc.frame)
				}
				if n := len(before.lines); n != 1 || !strings.HasPrefix(before.lines[0], "a:"+tc.event+"@") {
					t.Errorf("attachment before the panic saw %v, want one %s", before.lines, tc.event)
				}
				if len(after.lines) != 0 {
					t.Errorf("attachment after the panic saw %v, want nothing", after.lines)
				}
			}()
			reportRun(cfg)
		})
	}
}

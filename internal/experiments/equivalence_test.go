package experiments_test

// The differential equivalence suite behind the engine's hot-path
// optimizations: the same seed run through the optimized engine and
// through the reference path (Config.Reference — idle-station
// scheduling, the transmission free-list, the LAMM cover-angle store
// and MCS memo all disabled) must produce identical channel-level
// transcripts, identical observer event streams and identical metric
// summaries for every protocol. Any output-bit drift introduced by a
// future optimization fails here with the first diverging event.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// transcript records every channel-level event as a formatted line — a
// maximally unforgiving equality witness: sender, receiver, frame type,
// msgID, duration and slot all participate.
type transcript struct {
	lines []string
}

func (tr *transcript) add(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func (tr *transcript) Kinds() sim.KindSet {
	return sim.Kinds(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost)
}

func (tr *transcript) Observe(ev *sim.Event) {
	f := ev.Frame
	switch ev.Kind {
	case sim.EvFrameTx:
		tr.add("tx %d->%v %v msg=%d dur=%d [%d,%d]", ev.Station, f.Dst, f.Type, f.MsgID, f.Duration, ev.Start, ev.End)
	case sim.EvRxOK:
		tr.add("rx %d<-%v %v msg=%d @%d", ev.Station, f.Src, f.Type, f.MsgID, ev.Slot)
	case sim.EvRxLost:
		tr.add("lost %d<-%v %v msg=%d @%d", ev.Station, f.Src, f.Type, f.MsgID, ev.Slot)
	}
}

// requestCounts renders every request's engine-kept counts — ID,
// contentions, rounds, residual — one message per line in ID order.
func requestCounts(res experiments.RunResult) string {
	var b strings.Builder
	for _, r := range res.Collector.Records() {
		fmt.Fprintf(&b, "%d %d %d %d\n", r.ID, r.Contentions, r.Rounds, r.Residual)
	}
	return b.String()
}

// runOnce executes one run and returns its four equality witnesses:
// the channel transcript, the observer event stream (JSONL), the metric
// summary (JSON) and the requests' counts.
func runOnce(t *testing.T, proto experiments.Protocol, reference bool) ([]string, []byte, []byte, string) {
	t.Helper()
	tracer := obs.NewTracer(1 << 20)
	cfg := experiments.Defaults(proto, 11)
	cfg.Slots = 2000
	ch := &transcript{}
	cfg.Observers = []sim.Observer{tracer, ch}
	cfg.Reference = reference

	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatalf("%s reference=%v: %v", proto, reference, err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("%s: tracer dropped %d events; raise capacity", proto, tracer.Dropped())
	}
	var events bytes.Buffer
	if err := tracer.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	summary, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	return ch.lines, events.Bytes(), summary, requestCounts(res)
}

// TestOptimizedMatchesReference is the differential gate for all six
// protocols: the paper's evaluation set, stock 802.11 and KK-Leader.
func TestOptimizedMatchesReference(t *testing.T) {
	for _, proto := range experiments.ExtendedProtocols {
		t.Run(string(proto), func(t *testing.T) {
			optCh, optEv, optSum, optReq := runOnce(t, proto, false)
			refCh, refEv, refSum, refReq := runOnce(t, proto, true)

			if len(optCh) != len(refCh) {
				t.Fatalf("transcript length diverged: optimized %d events, reference %d", len(optCh), len(refCh))
			}
			for i := range optCh {
				if optCh[i] != refCh[i] {
					t.Fatalf("transcript diverged at event %d:\n  optimized: %s\n  reference: %s", i, optCh[i], refCh[i])
				}
			}
			if !bytes.Equal(optEv, refEv) {
				t.Error("observer event streams diverged")
			}
			if !bytes.Equal(optSum, refSum) {
				t.Errorf("summaries diverged:\n  optimized: %s\n  reference: %s", optSum, refSum)
			}
			if optReq != refReq {
				t.Error("request counts diverged")
			}
		})
	}
}

// witnesses bundles every equality witness one observer-laden run can
// produce: the channel transcript, the traced observer event stream,
// the metric summary, every request's counts, the airtime ledger
// snapshot, the conformance auditor's statistics and findings report,
// and the fault injector's counters when the run is impaired.
type witnesses struct {
	transcript []string
	events     []byte
	summary    []byte
	requests   string
	ledger     []byte
	audit      []byte
	fault      string
}

// runFull executes one run with the full observer stack attached — the
// traced observer stream, an airtime ledger, a conformance auditor and
// the channel transcript — and collects every witness. mutate
// customises the configuration before the run (traffic mode,
// impairments, slot count).
func runFull(t *testing.T, proto experiments.Protocol, reference bool,
	mutate func(cfg *experiments.RunConfig)) witnesses {
	t.Helper()
	cfg := experiments.Defaults(proto, 11)
	cfg.Slots = 2000
	cfg.Reference = reference

	tracer := obs.NewTracer(1 << 20)
	ch := &transcript{}
	reg := obs.NewRegistry()
	led := obs.NewLedger(reg, "eq")
	ap, ok := obs.AuditProtocolFor(string(proto))
	if !ok {
		t.Fatalf("no audit model for %s", proto)
	}
	aud := obs.NewAuditor(ap, cfg.MAC.RetryLimit)
	cfg.Observers = []sim.Observer{tracer, led, aud, ch}
	if mutate != nil {
		mutate(&cfg)
	}

	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatalf("%s reference=%v: %v", proto, reference, err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("%s: tracer dropped %d events; raise capacity", proto, tracer.Dropped())
	}
	var w witnesses
	w.transcript = ch.lines
	var events bytes.Buffer
	if err := tracer.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	w.events = events.Bytes()
	if w.summary, err = json.Marshal(res.Summary); err != nil {
		t.Fatal(err)
	}
	w.requests = requestCounts(res)
	snap := led.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("%s reference=%v: ledger not conserved: %+v", proto, reference, snap)
	}
	if w.ledger, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	var audit bytes.Buffer
	fmt.Fprintf(&audit, "audited=%d violations=%d\n", aud.Audited(), aud.Violations())
	for _, f := range aud.Findings() {
		fmt.Fprintf(&audit, "slot %d msg %d station %d [%s] %s\n", f.Slot, f.MsgID, f.Station, f.Rule, f.Detail)
	}
	w.audit = audit.Bytes()
	if res.Fault != nil {
		iid, ge := res.Fault.Erasures()
		drops, downs := res.Fault.CrashStats()
		w.fault = fmt.Sprintf("erasures iid=%d ge=%d crash drops=%d downs=%d", iid, ge, drops, downs)
	}
	return w
}

// diffWitnesses fails the test on the first diverging witness.
func diffWitnesses(t *testing.T, opt, ref witnesses) {
	t.Helper()
	if len(opt.transcript) != len(ref.transcript) {
		t.Fatalf("transcript length diverged: optimized %d events, reference %d",
			len(opt.transcript), len(ref.transcript))
	}
	for i := range opt.transcript {
		if opt.transcript[i] != ref.transcript[i] {
			t.Fatalf("transcript diverged at event %d:\n  optimized: %s\n  reference: %s",
				i, opt.transcript[i], ref.transcript[i])
		}
	}
	if !bytes.Equal(opt.events, ref.events) {
		t.Error("observer event streams diverged")
	}
	if !bytes.Equal(opt.summary, ref.summary) {
		t.Errorf("summaries diverged:\n  optimized: %s\n  reference: %s", opt.summary, ref.summary)
	}
	if opt.requests != ref.requests {
		t.Error("request counts diverged")
	}
	if !bytes.Equal(opt.ledger, ref.ledger) {
		t.Errorf("ledger snapshots diverged:\n  optimized: %s\n  reference: %s", opt.ledger, ref.ledger)
	}
	if !bytes.Equal(opt.audit, ref.audit) {
		t.Errorf("audit reports diverged:\n  optimized: %s\n  reference: %s", opt.audit, ref.audit)
	}
	if opt.fault != ref.fault {
		t.Errorf("fault counters diverged:\n  optimized: %s\n  reference: %s", opt.fault, ref.fault)
	}
}

// TestOptimizedMatchesReferenceSkipping is the differential gate for the
// event clock: sparse traffic leaves long idle stretches
// the optimized engine jumps over, and the run must stay byte-identical
// to the reference engine ticking every slot — transcripts, event
// streams, summaries, the airtime ledger (fed idle spans in bulk on the
// optimized side, slot by slot on the reference side) and the
// conformance auditor all agree for every protocol.
func TestOptimizedMatchesReferenceSkipping(t *testing.T) {
	sparse := func(cfg *experiments.RunConfig) {
		cfg.Rate = 0.00025
		cfg.Slots = 4000
	}
	for _, proto := range experiments.ExtendedProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opt := runFull(t, proto, false, sparse)
			ref := runFull(t, proto, true, sparse)
			if len(opt.transcript) == 0 {
				t.Fatal("sparse run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, opt, ref)
		})
	}
}

// TestOptimizedMatchesReferenceImpaired adds the impairment subsystem to
// the skipping gate with the observed-impaired fault mix: i.i.d. frame
// erasures, Gilbert–Elliott bursty links, and node crash/recover
// schedules, whose up/down transitions the optimized engine applies at
// scheduled wake obligations while the reference engine queries every
// station every slot. The injector's counters — erasures per axis,
// crash drops and down intervals entered — must agree too.
func TestOptimizedMatchesReferenceImpaired(t *testing.T) {
	impaired := func(cfg *experiments.RunConfig) {
		cfg.Rate = 0.00025
		cfg.Slots = 4000
		cfg.Fault = fault.Config{
			PER:   0.02,
			GE:    fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
			Crash: fault.Crash{MTTF: 1500, MTTR: 150},
		}
	}
	for _, proto := range experiments.ExtendedProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opt := runFull(t, proto, false, impaired)
			ref := runFull(t, proto, true, impaired)
			if len(opt.transcript) == 0 || opt.fault == "" {
				t.Fatal("impaired run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, opt, ref)
		})
	}
}

// TestOptimizedMatchesReferenceSeeds reruns the gate for LAMM — the
// protocol with the deepest cache stack (cover angles, MCS memo,
// idle-skip) — across several seeds, guarding against an equivalence
// that only holds on one lucky trajectory.
func TestOptimizedMatchesReferenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfgO := experiments.Defaults(experiments.LAMM, seed)
		cfgO.Slots = 1200
		cfgR := cfgO
		cfgR.Reference = true
		resO, err := experiments.Run(cfgO)
		if err != nil {
			t.Fatal(err)
		}
		resR, err := experiments.Run(cfgR)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(resO.Summary)
		b, _ := json.Marshal(resR.Summary)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: summaries diverged:\n  optimized: %s\n  reference: %s", seed, a, b)
		}
		if requestCounts(resO) != requestCounts(resR) {
			t.Errorf("seed %d: request counts diverged", seed)
		}
	}
}

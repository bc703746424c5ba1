package experiments

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// everySurface is a Watch carrying every surface, served; Run writes
// its trace into dir.
func everySurface(dir string) *Watch {
	reg := obs.NewRegistry()
	return &Watch{
		Stats: true, Ledger: true, Drift: true, TraceFile: filepath.Join(dir, "trace.jsonl"),
		Flight: true, FlightStats: true, Audit: true, Phases: true,
		Registry: reg, Server: obs.NewMetricsServer(reg),
	}
}

// TestWatchOneAttachmentPerList: each surface is appended once to
// Observers, declaring the kinds its output reads, the lists that
// subscribe nothing stay empty, and the phase timer goes in Profiler.
func TestWatchOneAttachmentPerList(t *testing.T) {
	cfg := Defaults(BMMM, 1)
	everySurface(t.TempDir()).Attach(&cfg)
	var got []string
	for _, o := range cfg.Observers {
		var kinds []string
		for k := sim.EvSubmit; k <= sim.EvRxLost; k++ {
			if o.Kinds().Has(k) {
				kinds = append(kinds, k.String())
			}
		}
		got = append(got, fmt.Sprintf("%T %s", o, strings.Join(kinds, ",")))
	}
	want := []string{
		"*obs.Stats submit,contention,frame-tx,data-rx,round,complete,abort",
		"*obs.Ledger submit,contention,frame-tx,round,complete,abort,slot,idle-span",
		"*obs.DriftMonitor round,complete",
		"*obs.Tracer submit,contention,frame-tx,data-rx,round,complete,abort",
		"*obs.Flight submit,contention,frame-tx,data-rx,round,complete,abort,service-start,round-start,response-drop",
		"*obs.Auditor submit,contention,frame-tx,round,complete,abort,service-start,round-start",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Observers:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(cfg.Lifecycles) != 0 || len(cfg.SlotObservers) != 0 {
		t.Errorf("Lifecycles %v, SlotObservers %v; want both empty", cfg.Lifecycles, cfg.SlotObservers)
	}
	if got := fmt.Sprintf("%T", cfg.Profiler); got != "*prof.PhaseTimer" {
		t.Errorf("Profiler = %s, want *prof.PhaseTimer", got)
	}
}

// TestLegacyListsSubscribeNothing attaches the way perfbench does — the
// ledger on Observers and SlotObservers, the flight recorder and the
// auditor on Observers and Lifecycles — and checks that the run matches
// one with the same surfaces on Observers alone: the same ledger
// snapshot, audit and summary. A surface subscribed twice would count
// each slot twice and see every frame twice.
func TestLegacyListsSubscribeNothing(t *testing.T) {
	for _, p := range AllProtocols {
		run := func(legacy bool) string {
			cfg := Defaults(p, 3)
			cfg.Nodes, cfg.Slots = 40, 2000
			cfg.Fault = fault.Config{PER: 0.02, Crash: fault.Crash{MTTF: 1500, MTTR: 150}}
			led := obs.NewLedger(obs.NewRegistry(), "legacy")
			fl := obs.NewFlight(nil, "", 0)
			ap, _ := obs.AuditProtocolFor(string(p))
			aud := obs.NewAuditor(ap, cfg.MAC.RetryLimit)
			cfg.Observers = []sim.Observer{led, fl, aud}
			if legacy {
				cfg.SlotObservers = []sim.Observer{led}
				cfg.Lifecycles = []sim.Observer{fl, aud}
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s legacy=%v: %v", p, legacy, err)
			}
			snap := led.Snapshot()
			if snap.TotalSlots != int64(cfg.Slots) {
				t.Errorf("%s legacy=%v: ledger counts %d slots of %d", p, legacy, snap.TotalSlots, cfg.Slots)
			}
			return fmt.Sprintf("%+v\n%+v\n%+v\n%+v", snap, fl.Stats(), aud.Report(), res.Summary)
		}
		if plain, legacy := run(false), run(true); plain != legacy {
			t.Errorf("%s: a perfbench-style attach diverged:\n  Observers alone: %s\n  legacy lists:    %s", p, plain, legacy)
		}
	}
}

// TestWatchPoolsInSeedOrder attaches runs in shuffled seed order, as a
// parallel sweep may: the pooled flight recorders and audit findings
// come back in seed order.
func TestWatchPoolsInSeedOrder(t *testing.T) {
	w := &Watch{Flight: true, Audit: true}
	flightOf := make(map[int64]*obs.Flight)
	for _, seed := range []int64{5, 2, 9, 1, 7} {
		cfg := Defaults(BMMM, seed)
		w.Attach(&cfg)
		for _, o := range cfg.Observers {
			switch o := o.(type) {
			case *obs.Flight:
				flightOf[seed] = o
			case *obs.Auditor:
				// One finding per run, tagged with the run's seed: a
				// completion before service start.
				req := &sim.Request{ID: seed, Kind: sim.Broadcast}
				o.Observe(&sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				o.Observe(&sim.Event{Kind: sim.EvComplete, Req: req, Slot: 1})
			}
		}
	}
	var gotSeeds []int64
	for _, fl := range w.Flights(BMMM) {
		for seed, f := range flightOf {
			if f == fl {
				gotSeeds = append(gotSeeds, seed)
			}
		}
	}
	if fmt.Sprint(gotSeeds) != "[1 2 5 7 9]" {
		t.Errorf("pooled flights in seed order %v, want [1 2 5 7 9]", gotSeeds)
	}
	rep := w.Audits()[string(BMMM)]
	if rep == nil {
		t.Fatal("no pooled BMMM audit")
	}
	var ids []int64
	for _, f := range rep.Findings {
		if f.Rule == "complete-before-service" {
			ids = append(ids, f.MsgID)
		}
	}
	if fmt.Sprint(ids) != "[1 2 5 7 9]" {
		t.Errorf("pooled findings in seed order %v, want [1 2 5 7 9]", ids)
	}
	if rep.Violations != int64(len(rep.Findings)) || rep.Violations < 5 {
		t.Errorf("pooled audit %d violations over %d findings", rep.Violations, len(rep.Findings))
	}
}

// TestWatchServesConcurrentWithRun scrapes /metrics and /snapshot from
// several goroutines while Watch-attached runs with every surface
// execute — meaningful under `go test -race`. After the runs the
// snapshot carries one section per surface, the served ledger keeps
// slot conservation, and /metrics has phase series for each protocol.
func TestWatchServesConcurrentWithRun(t *testing.T) {
	w := everySurface(t.TempDir())
	handler := w.Server.Handler()
	protos := []Protocol{BMMM, LAMM}

	done := make(chan error, 1)
	go func() {
		for _, p := range protos {
			cfg := Defaults(p, 11)
			cfg.Nodes, cfg.Slots = 60, 3000
			if _, err := w.Run(cfg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for _, path := range []string{"/metrics", "/snapshot"} {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("%s returned %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var snap struct {
		Ledgers map[string]obs.LedgerSnapshot `json:"ledgers"`
		Tracers map[string]obs.TracerStats    `json:"tracers"`
		Flights map[string]obs.FlightStats    `json:"flights"`
		Audits  map[string]obs.AuditStats     `json:"audits"`
		Drift   map[string]json.RawMessage    `json:"drift"`
		Profile map[string]json.RawMessage    `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, p := range protos {
		name := string(p)
		ls, ok := snap.Ledgers[name]
		if !ok || ls.TotalSlots != 3000 || !ls.Conserved() {
			t.Errorf("%s ledger section %+v (present %v), want 3000 conserved slots", name, ls, ok)
		}
		if snap.Tracers[name].Buffered == 0 {
			t.Errorf("%s tracer section %+v", name, snap.Tracers[name])
		}
		if snap.Flights[name].Tracked == 0 {
			t.Errorf("%s flight section %+v", name, snap.Flights[name])
		}
		if a := snap.Audits[name]; a.Audited == 0 || a.Violations != 0 {
			t.Errorf("%s audit section %+v", name, a)
		}
		if _, ok := snap.Drift[name]; !ok {
			t.Errorf("no %s drift section", name)
		}
		if _, ok := snap.Profile[name]; !ok {
			t.Errorf("no %s profile section", name)
		}
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, p := range protos {
		if series := fmt.Sprintf("relmac_phase_ns{profile=%q", p); !strings.Contains(rec.Body.String(), series) {
			t.Errorf("/metrics has no %s series", series)
		}
	}
	if tb := w.PhaseTable(); len(tb.Rows) != len(protos) {
		t.Errorf("phase table has %d rows, want %d", len(tb.Rows), len(protos))
	}
}

// TestWatchServesOnlyAttachedSurfaces: a section appears on the first
// attach of its surface, so a Watch with the ledger alone serves no
// empty tracer, flight, audit or drift section.
func TestWatchServesOnlyAttachedSurfaces(t *testing.T) {
	reg := obs.NewRegistry()
	w := &Watch{Ledger: true, Registry: reg, Server: obs.NewMetricsServer(reg)}
	snapshotKeys := func() string {
		rec := httptest.NewRecorder()
		w.Server.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Sprint(keys)
	}
	if got := snapshotKeys(); got != "[registry]" {
		t.Errorf("before any attach: sections %s", got)
	}
	cfg := Defaults(BMMM, 3)
	cfg.Nodes, cfg.Slots = 20, 200
	if _, err := w.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := snapshotKeys(); got != "[ledgers registry]" {
		t.Errorf("after a ledgered run: sections %s", got)
	}
}

package obs_test

import (
	"encoding/json"
	"testing"

	"relmac/internal/baseline/dcf"
	"relmac/internal/core"
	"relmac/internal/experiments"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/obs"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

func TestAuditProtocolFor(t *testing.T) {
	cases := []struct {
		name string
		want obs.AuditProtocol
		ok   bool
	}{
		{"802.11", obs.AuditPlain, true},
		{"plain", obs.AuditPlain, true},
		{"BSMA", obs.AuditBSMA, true},
		{"bmw", obs.AuditBMW, true},
		{"BMMM", obs.AuditBMMM, true},
		{"lamm", obs.AuditLAMM, true},
		{"KK-Leader", obs.AuditKKLeader, true},
		{"nonsense", 0, false},
	}
	for _, tc := range cases {
		got, ok := obs.AuditProtocolFor(tc.name)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("AuditProtocolFor(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestAuditorCleanRuns feeds full default-style runs of every audited
// protocol through the conformance auditor and requires zero violations:
// a legal implementation must never trip the state machines.
func TestAuditorCleanRuns(t *testing.T) {
	for _, proto := range []experiments.Protocol{
		experiments.Plain80211, experiments.BSMA, experiments.BMW,
		experiments.BMMM, experiments.LAMM, experiments.KKLeader,
	} {
		t.Run(string(proto), func(t *testing.T) {
			cfg := experiments.Defaults(proto, 3)
			cfg.Nodes, cfg.Slots = 40, 3000
			ap, ok := obs.AuditProtocolFor(string(proto))
			if !ok {
				t.Fatalf("no audit model for %s", proto)
			}
			aud := obs.NewAuditor(ap, cfg.MAC.RetryLimit)
			cfg.Observers = append(cfg.Observers, aud)
			if _, err := experiments.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if aud.Audited() == 0 {
				t.Fatal("auditor saw no group messages")
			}
			if v := aud.Violations(); v != 0 {
				t.Errorf("%d violations on a clean run:", v)
				for _, f := range aud.Findings() {
					t.Errorf("  slot %d msg %d station %d [%s] %s", f.Slot, f.MsgID, f.Station, f.Rule, f.Detail)
				}
			}
		})
	}
}

// feed hands ev to o and then updates the request as the engine does
// around a fan-out: the residual starts at len(Dests) on submit, and a
// contention or round is counted after delivery. Hand-fed events so
// show a request that reads as in an engine run.
func feed(o sim.Observer, ev sim.Event) {
	if ev.Kind == sim.EvSubmit {
		ev.Req.Residual = len(ev.Req.Dests)
	}
	o.Observe(&ev)
	switch ev.Kind {
	case sim.EvContention:
		ev.Req.Contentions++
	case sim.EvRound:
		ev.Req.Rounds++
		ev.Req.Residual = ev.Residual
	}
}

// tx feeds the auditor a transmission of message 1.
func tx(a *obs.Auditor, t frames.Type, dst frames.Addr, sender int, now sim.Slot) {
	feed(a, sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: t, MsgID: 1, Dst: dst}, Station: sender, Slot: now})
}

// batchPrefix drives an auditor through the legal opening of a BMMM
// exchange — submit, service, round 1 polling three receivers, a won
// contention and the three RTS/CTS polls — and returns the request.
func batchPrefix(a *obs.Auditor) *sim.Request {
	req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1, 2, 3}}
	feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
	feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
	feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 1, Polled: 3, Slot: 0})
	feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 0})
	for i := 1; i <= 3; i++ {
		tx(a, frames.RTS, frames.Addr(i), 0, sim.Slot(2*i))
		tx(a, frames.CTS, 0, i, sim.Slot(2*i+1))
	}
	return req
}

// finishBatch legally completes a batchPrefix exchange: DATA, the three
// RAK/ACK polls, a residual-0 round close and the completion.
func finishBatch(a *obs.Auditor, req *sim.Request) {
	tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
	for i := 1; i <= 3; i++ {
		tx(a, frames.RAK, frames.Addr(i), 0, sim.Slot(12+2*i))
		tx(a, frames.ACK, 0, i, sim.Slot(13+2*i))
	}
	feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 0, Slot: 19})
	feed(a, sim.Event{Kind: sim.EvComplete, Req: req, Slot: 19})
}

// TestAuditorLegalExchange pins the zero-violation baseline for the
// synthetic event stream the mutation tests perturb.
func TestAuditorLegalExchange(t *testing.T) {
	a := obs.NewAuditor(obs.AuditBMMM, 64)
	req := batchPrefix(a)
	finishBatch(a, req)
	if v := a.Violations(); v != 0 {
		t.Fatalf("legal exchange produced %d violations: %+v", v, a.Findings())
	}
}

// TestAuditorMutations injects one illegal transition per case into an
// otherwise-legal event stream and requires the auditor to flag exactly
// the expected rule — the mutation coverage for the conformance FSMs.
func TestAuditorMutations(t *testing.T) {
	cases := []struct {
		name  string
		proto obs.AuditProtocol
		limit int
		feed  func(a *obs.Auditor)
		want  string
		// exact requires every finding to carry the wanted rule, so the
		// legal part of the feed must pass the grammar too.
		exact bool
	}{
		{
			name: "data-without-cts", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 1, Polled: 1, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 0})
				tx(a, frames.RTS, 1, 0, 2)
				// No CTS came back, yet the sender transmits the data frame.
				tx(a, frames.Data, frames.BroadcastAddr, 0, 4)
			},
			want: "data-without-cts",
		},
		{
			name: "rak-before-data", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				batchPrefix(a)
				tx(a, frames.RAK, 1, 0, 8)
			},
			want: "rak-before-data",
		},
		{
			name: "rts-after-data", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				tx(a, frames.RTS, 1, 0, 13)
			},
			want: "rts-after-data",
		},
		{
			name: "duplicate-data", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 13)
			},
			want: "duplicate-data",
		},
		{
			name: "retry-before-rak", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				// A retry round opens before the RAK polls acknowledged the data.
				feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 2, Polled: 3, Slot: 13})
			},
			want: "retry-before-rak",
		},
		{
			name: "residual-increase", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				for i := 1; i <= 3; i++ {
					tx(a, frames.RAK, frames.Addr(i), 0, sim.Slot(12+2*i))
				}
				feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 5, Slot: 19}) // residual grew past the intended set
			},
			want: "residual-increase",
		},
		{
			name: "complete-with-residual", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				for i := 1; i <= 3; i++ {
					tx(a, frames.RAK, frames.Addr(i), 0, sim.Slot(12+2*i))
				}
				feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 1, Slot: 19})
				feed(a, sim.Event{Kind: sim.EvComplete, Req: req, Slot: 19}) // one receiver still unserved
			},
			want: "complete-with-residual",
		},
		{
			name: "tx-after-close", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				finishBatch(a, req)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 30)
			},
			want: "tx-after-close",
		},
		{
			name: "retry-overrun", proto: obs.AuditBMMM, limit: 2,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				for i := 0; i < 3; i++ {
					feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: i + 1, Polled: 1, Slot: sim.Slot(10 * i)})
					feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: sim.Slot(10 * i)})
				}
			},
			want: "retry-overrun",
		},
		{
			name: "premature-retry-abort", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				feed(a, sim.Event{Kind: sim.EvAbort, Req: req, Reason: sim.AbortRetries, Slot: 9})
			},
			want: "premature-retry-abort",
		},
		{
			name: "frame-before-service", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				tx(a, frames.RTS, 1, 0, 1)
			},
			want: "frame-before-service",
		},
		{
			name: "illegal-frame-plain", proto: obs.AuditPlain, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 0})
				// Plain 802.11 multicast has no handshake at all.
				tx(a, frames.RTS, 1, 0, 2)
			},
			want: "illegal-frame",
		},
		{
			name: "bmw-residual-step", proto: obs.AuditBMW, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1, 2, 3}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 1, Polled: 1, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 0})
				tx(a, frames.RTS, 1, 0, 2)
				tx(a, frames.CTS, 0, 1, 3)
				tx(a, frames.Data, 1, 0, 4)
				tx(a, frames.ACK, 0, 1, 9)
				feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 1, Slot: 10}) // BMW must step 3 -> 2, not 3 -> 1
			},
			want: "bmw-residual-step",
		},
		{
			name: "bmw-round-overlap", proto: obs.AuditBMW, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1, 2}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 1, Polled: 1, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvRoundStart, Req: req, Round: 2, Polled: 1, Slot: 1}) // previous round never closed
			},
			want: "round-overlap",
		},
		{
			name: "lifecycle-count", proto: obs.AuditBMMM, limit: 64,
			feed: func(a *obs.Auditor) {
				req := batchPrefix(a)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 8)
				for i := 1; i <= 3; i++ {
					tx(a, frames.RAK, frames.Addr(i), 0, sim.Slot(12+2*i))
					tx(a, frames.ACK, 0, i, sim.Slot(13+2*i))
				}
				feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 0, Slot: 19})
				// The engine's record lost a contention phase the events showed.
				req.Contentions--
				feed(a, sim.Event{Kind: sim.EvComplete, Req: req, Slot: 19})
			},
			want: "lifecycle-count",
		},
		{
			// A full leader exchange, the ACK jammed by a NAK, then a retry
			// whose DATA follows the RTS with no CTS. The legal part must
			// pass the KK-Leader grammar: BSMA forbids the ACK, BMW wants
			// rounds, plain 802.11 forbids the RTS.
			name: "kk-leader-data-without-cts", proto: obs.AuditKKLeader, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1, 2}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 0})
				tx(a, frames.RTS, 1, 0, 2)
				tx(a, frames.CTS, 0, 1, 3)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 4)
				tx(a, frames.ACK, 0, 1, 9)
				tx(a, frames.NAK, 0, 2, 9)
				feed(a, sim.Event{Kind: sim.EvContention, Req: req, Slot: 10})
				tx(a, frames.RTS, 1, 0, 12)
				tx(a, frames.Data, frames.BroadcastAddr, 0, 14)
			},
			want: "data-without-cts", exact: true,
		},
		{
			name: "illegal-round-plain", proto: obs.AuditPlain, limit: 64,
			feed: func(a *obs.Auditor) {
				req := &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0, Dests: []int{1}}
				feed(a, sim.Event{Kind: sim.EvSubmit, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvServiceStart, Req: req, Slot: 0})
				feed(a, sim.Event{Kind: sim.EvRound, Req: req, Residual: 0, Slot: 5})
			},
			want: "illegal-round",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := obs.NewAuditor(tc.proto, tc.limit)
			tc.feed(a)
			if a.Violations() == 0 {
				t.Fatalf("mutation went undetected")
			}
			found := false
			for _, f := range a.Findings() {
				if f.Rule == tc.want {
					found = true
				} else if tc.exact {
					t.Errorf("unexpected finding %+v", f)
				}
			}
			if !found {
				t.Errorf("expected rule %q among findings %+v", tc.want, a.Findings())
			}
		})
	}
}

// overPoller is a deliberately broken BMMM Picker that polls every
// remaining receiver twice — an end-to-end mutation: the illegal
// behaviour flows through a real engine run and must surface as
// poll-exceeds-residual findings.
type overPoller struct{}

func (overPoller) Poll(env *sim.Env, S []int) []int {
	return append(append([]int(nil), S...), S...)
}

func (overPoller) Update(env *sim.Env, S []int, acked []int) []int {
	out := make([]int, 0, len(S))
	for _, s := range S {
		served := false
		for _, a := range acked {
			if a == s {
				served = true
				break
			}
		}
		if !served {
			out = append(out, s)
		}
	}
	return out
}

// TestAuditorDetectsMutantProtocol runs a real engine whose batch MAC
// over-polls and requires the auditor to catch it — the acceptance-level
// mutation test: the auditor is wired exactly as in production and the
// illegal transition arrives through genuine frame traffic.
func TestAuditorDetectsMutantProtocol(t *testing.T) {
	cfg := mac.DefaultConfig()
	aud := obs.NewAuditor(obs.AuditBMMM, cfg.RetryLimit)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Observers: []sim.Observer{aud}})
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		return dcf.NewStation(node, cfg, core.NewBatch(overPoller{}))
	})
	script := traffic.NewScript()
	script.At(0, &sim.Request{Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(200, script)

	if aud.Audited() == 0 {
		t.Fatal("auditor saw no group messages")
	}
	if aud.Violations() == 0 {
		t.Fatal("over-polling mutant went undetected")
	}
	found := false
	for _, f := range aud.Findings() {
		if f.Rule == "poll-exceeds-residual" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("expected poll-exceeds-residual among findings, got %+v",
			aud.Findings()[:min(4, len(aud.Findings()))])
	}
}

// TestAuditorReport checks the JSON report shape.
func TestAuditorReport(t *testing.T) {
	a := obs.NewAuditor(obs.AuditBMMM, 64)
	req := batchPrefix(a)
	finishBatch(a, req)
	data, err := json.Marshal(a.Report())
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Protocol   string        `json:"protocol"`
		Audited    int64         `json:"audited"`
		Violations int64         `json:"violations"`
		Findings   []obs.Finding `json:"findings"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Protocol != "BMMM" || rep.Audited != 1 || rep.Violations != 0 || rep.Findings == nil {
		t.Errorf("report = %+v, want BMMM/1/0 with non-nil findings", rep)
	}
}

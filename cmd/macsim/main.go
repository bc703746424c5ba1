// Command macsim runs one-off wireless LAN simulations of the reliable
// multicast MAC protocols (802.11 plain multicast, BSMA, BMW, BMMM,
// LAMM) and prints the paper's metrics: successful delivery rate,
// average contention phases and average message completion time.
//
// Usage:
//
//	macsim -protocol LAMM -nodes 100 -slots 10000 -runs 10
//	macsim -protocol all -rate 0.001 -capture sir
//	macsim -protocol BMMM -trace out.json       # Chrome trace for Perfetto
//	macsim -protocol BMMM -trace out.jsonl      # JSONL event log
//	macsim -protocol BMMM -flight spans.jsonl   # per-message lifecycle spans
//	macsim -protocol all -flightstats -stats    # stage-decomposed latency histograms
//	macsim -protocol all -audit report.json     # protocol conformance audit
//	macsim -protocol all -stats -pprof :6060
//	macsim -protocol all -ledger airtime.json  # slot-accurate airtime ledger + drift
//	macsim -protocol BMMM -listen :9090 -hold  # live /metrics + /snapshot endpoints
//	macsim -protocol BMMM -per 0.1 -stats       # 10% i.i.d. frame loss
//	macsim -protocol LAMM -ge 0.01:0.1:0.8      # bursty (Gilbert–Elliott) links
//	macsim -protocol all -crash 2000:200        # node crash/recover schedules
//	macsim -protocol LAMM -locnoise 0.05        # GPS error fed to LAMM
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"

	"relmac/internal/analysis"
	"relmac/internal/capture"
	"relmac/internal/chart"
	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/metrics"
	"relmac/internal/obs"
	"relmac/internal/prof"
	"relmac/internal/report"
	"relmac/internal/sim"

	_ "net/http/pprof"
)

func main() {
	proto := flag.String("protocol", "all", "protocol to simulate: 802.11|BSMA|BMW|BMMM|LAMM|KK-Leader|all|extended")
	nodes := flag.Int("nodes", 100, "number of stations in the unit square")
	radius := flag.Float64("radius", 0.2, "transmission radius")
	slots := flag.Int("slots", 10000, "simulated slots")
	timeout := flag.Int("timeout", 100, "upper-layer message timeout in slots")
	rate := flag.Float64("rate", 0.0005, "message generation rate per node per slot")
	threshold := flag.Float64("threshold", 0.9, "reliability threshold for success")
	capName := flag.String("capture", "zorzi-rao", "capture model: none|zorzi-rao|sir")
	runs := flag.Int("runs", 10, "independent runs to average")
	seed := flag.Int64("seed", 1, "base random seed")
	chartSlots := flag.Int("chart", 0, "render an ASCII channel-occupancy chart of the first N slots (single protocol, single run)")
	traceFile := flag.String("trace", "", "write an event trace of a single run to this file: *.jsonl for JSONL, anything else for Chrome trace-event JSON (open at ui.perfetto.dev)")
	stats := flag.Bool("stats", false, "print the stat registry (per-protocol counters and histograms) after the run table")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the duration of the run")
	per := flag.Float64("per", 0, "fault: i.i.d. per-link packet error rate in [0,1]")
	geSpec := flag.String("ge", "", "fault: Gilbert–Elliott bursty channel, pGoodBad:pBadGood:perBad[:perGood]")
	crashSpec := flag.String("crash", "", "fault: node crash schedule, mttf:mttr in slots")
	locNoise := flag.Float64("locnoise", 0, "fault: stddev of the Gaussian location error LAMM sees (unit-square units)")
	ledgerFile := flag.String("ledger", "", "attach the airtime ledger and drift monitor, print the per-category breakdown, and write the JSON report to this file (\"-\" for stdout)")
	flightFile := flag.String("flight", "", "write per-message lifecycle span trees of a single run to this file: *.jsonl for span JSONL, anything else for Chrome trace-event JSON (open at ui.perfetto.dev)")
	flightStats := flag.Bool("flightstats", false, "attach a flight recorder per run and feed stage-decomposed latency histograms (queueing/contention/control/data airtime) into the stat registry; combine with -stats to print them")
	auditFile := flag.String("audit", "", "run the protocol conformance auditor on every run and write the findings report to this file (\"-\" for stdout); exits 1 if any violation is found")
	phases := flag.Bool("phases", false, "attach the engine phase profiler and print the phase breakdown after the run table (byte-identical results either way)")
	listen := flag.String("listen", "", "serve live metrics on this address (e.g. :9090): /metrics is Prometheus text, /snapshot is JSON; implies the airtime ledger")
	hold := flag.Bool("hold", false, "with -listen: keep serving after the runs complete until interrupted")
	flag.Parse()

	faultCfg := fault.Config{PER: *per, LocNoise: *locNoise}
	var err error
	if faultCfg.GE, err = fault.ParseGE(*geSpec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if faultCfg.Crash, err = fault.ParseCrash(*crashSpec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err = faultCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
	}

	capModel, ok := capture.ByName(*capName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown capture model %q\n", *capName)
		os.Exit(2)
	}
	var protos []experiments.Protocol
	switch {
	case strings.EqualFold(*proto, "all"):
		protos = experiments.AllProtocols
	case strings.EqualFold(*proto, "extended"):
		protos = experiments.ExtendedProtocols
	default:
		found := false
		for _, p := range experiments.ExtendedProtocols {
			if strings.EqualFold(string(p), *proto) ||
				(strings.EqualFold(*proto, "plain") && p == experiments.Plain80211) {
				protos = []experiments.Protocol{p}
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
			os.Exit(2)
		}
	}

	// runCfg is one run's configuration from the flags. It is validated
	// once up front, so a bad value is rejected before anything runs.
	runCfg := func(p experiments.Protocol, seed int64) experiments.RunConfig {
		cfg := experiments.Defaults(p, seed)
		cfg.Nodes = *nodes
		cfg.Radius = *radius
		cfg.Slots = *slots
		cfg.Timeout = *timeout
		cfg.Rate = *rate
		cfg.Threshold = *threshold
		cfg.Capture = capModel
		cfg.Fault = faultCfg
		return cfg
	}
	if err := runCfg(protos[0], *seed).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *chartSlots > 0 {
		// One run of the first protocol, cut at the charted horizon, with
		// the occupancy chart as the engine's tracer.
		cfg := runCfg(protos[0], *seed)
		cfg.Slots = *chartSlots
		ch := chart.New(cfg.Nodes, 0, sim.Slot(*chartSlots-1))
		ch.ShowLosses = true
		cfg.Tracer = ch
		if _, err := experiments.Run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s on %d stations, first %d slots:\n\n", protos[0], cfg.Nodes, *chartSlots)
		ch.Render(os.Stdout)
		fmt.Println("\n" + chart.Legend())
		return
	}

	if *traceFile != "" {
		// A trace file captures exactly one run of one protocol; mixing
		// events from several engines would interleave unrelated slots.
		if len(protos) > 1 {
			fmt.Fprintf(os.Stderr, "-trace: tracing only the first protocol (%s)\n", protos[0])
			protos = protos[:1]
		}
		if *runs != 1 {
			fmt.Fprintln(os.Stderr, "-trace: forcing -runs 1")
			*runs = 1
		}
	}
	if *flightFile != "" {
		// A span file captures exactly one run of one protocol, for the
		// same reason a trace file does.
		if len(protos) > 1 {
			fmt.Fprintf(os.Stderr, "-flight: recording only the first protocol (%s)\n", protos[0])
			protos = protos[:1]
		}
		if *runs != 1 {
			fmt.Fprintln(os.Stderr, "-flight: forcing -runs 1")
			*runs = 1
		}
	}
	ledgerOn := *ledgerFile != "" || *listen != ""
	var reg *obs.Registry
	if *stats || ledgerOn || *flightStats {
		reg = obs.NewRegistry()
	}

	// Drift accumulators merge across runs per protocol; the closure is
	// shared with the live /snapshot endpoint, so it takes the lock.
	var driftMu sync.Mutex
	driftAccums := make(map[string]*analysis.DriftAccum)
	driftSummaries := func() map[string]analysis.DriftSummary {
		driftMu.Lock()
		defer driftMu.Unlock()
		out := make(map[string]analysis.DriftSummary, len(driftAccums))
		for name, acc := range driftAccums {
			out[name] = acc.Summary()
		}
		return out
	}

	var msrv *obs.MetricsServer
	if *listen != "" {
		msrv = obs.NewMetricsServer(reg)
		msrv.Extra("drift", func() any { return driftSummaries() })
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		go func() {
			if err := http.Serve(ln, msrv.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics listening on http://%s\n", ln.Addr())
	}

	tb := report.NewTable(
		fmt.Sprintf("macsim: %d nodes, r=%g, %d slots, rate=%g, timeout=%d, capture=%s, %d run(s)",
			*nodes, *radius, *slots, *rate, *timeout, capModel.Name(), *runs),
		"protocol", "messages", "delivery rate", "avg contentions", "avg completion", "delivered frac")
	ledgers := make(map[string]*obs.Ledger)
	// Audit outcomes pool across runs per protocol; each run gets a fresh
	// auditor because message IDs restart with the engine.
	audits := make(map[string]*auditResult)
	// One phase timer per protocol, shared across its sequential runs so
	// the breakdown pools (prof.PhaseTimer is built for exactly this).
	phaseTimers := make(map[string]*prof.PhaseTimer)
	for _, p := range protos {
		var agg metrics.SummaryStats
		var st *obs.Stats
		if reg != nil {
			st = obs.NewStats(reg, string(p))
		}
		var pt *prof.PhaseTimer
		if *phases {
			pt = prof.New()
			phaseTimers[string(p)] = pt
			if msrv != nil {
				msrv.AddProfile(string(p), pt.Report)
			}
		}
		for r := 0; r < *runs; r++ {
			cfg := runCfg(p, *seed+int64(r))
			if pt != nil {
				cfg.Profiler = pt
			}
			if st != nil {
				cfg.Observers = append(cfg.Observers, st)
			}
			var dm *obs.DriftMonitor
			if ledgerOn {
				// Fresh ledger per run; sharing the registry prefix makes
				// the counters accumulate across runs, and the snapshot
				// endpoint keeps serving the latest instance mid-loop.
				led := obs.NewLedger(reg, string(p))
				cfg.Observers = append(cfg.Observers, led)
				cfg.SlotObservers = append(cfg.SlotObservers, led)
				ledgers[string(p)] = led
				if msrv != nil {
					msrv.AddLedger(string(p), led)
				}
				dm = obs.NewDriftMonitor(analysis.RoundModelFor(string(p)))
				cfg.Observers = append(cfg.Observers, dm)
			}
			var tracer *obs.Tracer
			if *traceFile != "" {
				tracer = obs.NewTracer(0)
				tracer.Timing = cfg.MAC.Timing
				cfg.Observers = append(cfg.Observers, tracer)
				if msrv != nil {
					msrv.AddTracer(string(p), tracer)
				}
			}
			var fl *obs.Flight
			if *flightFile != "" || *flightStats {
				// The registry (and a per-protocol prefix) only when the
				// histograms were asked for; a span dump alone stays
				// registry-free.
				var freg *obs.Registry
				prefix := ""
				if *flightStats {
					freg, prefix = reg, string(p)
				}
				fl = obs.NewFlight(freg, prefix, 0)
				fl.Timing = cfg.MAC.Timing
				cfg.Observers = append(cfg.Observers, fl)
				cfg.Lifecycles = append(cfg.Lifecycles, fl)
				if msrv != nil {
					msrv.AddFlight(string(p), fl)
				}
			}
			var aud *obs.Auditor
			if *auditFile != "" {
				if ap, ok := obs.AuditProtocolFor(string(p)); ok {
					aud = obs.NewAuditor(ap, cfg.MAC.RetryLimit)
					cfg.Observers = append(cfg.Observers, aud)
					cfg.Lifecycles = append(cfg.Lifecycles, aud)
					if msrv != nil {
						msrv.AddAuditor(string(p), aud)
					}
				} else if r == 0 {
					fmt.Fprintf(os.Stderr, "audit: no conformance model for %s, skipping\n", p)
				}
			}
			res, err := experiments.Run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			agg.Add(res.Summary)
			if reg != nil && res.Fault != nil {
				res.Fault.FeedRegistry(reg, string(p)+".fault")
			}
			if dm != nil {
				driftMu.Lock()
				if acc := driftAccums[string(p)]; acc != nil {
					acc.Merge(dm.Accum())
				} else {
					driftAccums[string(p)] = dm.Accum()
				}
				driftMu.Unlock()
			}
			if tracer != nil {
				if err := writeTrace(*traceFile, tracer); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "trace: %d events -> %s (%d dropped)\n",
					tracer.Len(), *traceFile, tracer.Dropped())
			}
			if fl != nil && *flightFile != "" {
				if err := writeFlight(*flightFile, fl); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fst := fl.Stats()
				fmt.Fprintf(os.Stderr, "flight: %d messages -> %s (%d complete, %d aborted, %d in flight)\n",
					fst.Tracked, *flightFile, fst.Completed, fst.Aborted, fst.InFlight)
			}
			if aud != nil {
				agg := audits[string(p)]
				if agg == nil {
					agg = &auditResult{Protocol: aud.Protocol().String(), Findings: []obs.Finding{}}
					audits[string(p)] = agg
				}
				ast := aud.Stats()
				agg.Audited += ast.Audited
				agg.Violations += ast.Violations
				agg.Findings = append(agg.Findings, aud.Findings()...)
			}
		}
		tb.AddRow(string(p), agg.Messages,
			fmt.Sprintf("%.3f ±%.3f", agg.SuccessRate.Mean(), agg.SuccessRate.CI95()),
			fmt.Sprintf("%.2f", agg.AvgContentions.Mean()),
			fmt.Sprintf("%.1f", agg.AvgCompletionTime.Mean()),
			fmt.Sprintf("%.3f", agg.MeanDeliveredFraction.Mean()))
	}
	tb.Render(os.Stdout)
	if *phases {
		fmt.Println()
		phaseTable(protos, phaseTimers).Render(os.Stdout)
	}
	if *stats {
		fmt.Println()
		if _, err := reg.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if ledgerOn {
		fmt.Println()
		airtimeTable(protos, ledgers, *runs).Render(os.Stdout)
	}
	if *ledgerFile != "" {
		if err := writeLedgerJSON(*ledgerFile, protos, ledgers, driftSummaries()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *auditFile != "" {
		if err := writeAuditJSON(*auditFile, protos, audits); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var violations int64
		for _, p := range protos {
			agg := audits[string(p)]
			if agg == nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "audit %s: %d messages, %d violations\n",
				p, agg.Audited, agg.Violations)
			violations += agg.Violations
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "audit: %d conformance violations\n", violations)
			os.Exit(1)
		}
	}
	if *listen != "" && *hold {
		fmt.Fprintln(os.Stderr, "metrics: holding (-hold); Ctrl-C to exit")
		select {}
	}
}

// phaseTable renders the phase breakdown: one row per protocol, one
// column per engine phase, each cell the fraction of that protocol's
// pooled wall time (all runs share one timer).
func phaseTable(protos []experiments.Protocol, timers map[string]*prof.PhaseTimer) *report.Table {
	cols := []string{"protocol", "wall ms"}
	for i := 0; i < sim.NumPhases; i++ {
		cols = append(cols, sim.Phase(i).String())
	}
	tb := report.NewTable("engine phases: fraction of wall time per phase (all runs pooled)", cols...)
	for _, p := range protos {
		pt := timers[string(p)]
		if pt == nil {
			continue
		}
		r := pt.Report()
		row := []any{string(p), float64(r.WallNs) / 1e6}
		for _, s := range r.Phases {
			row = append(row, s.Frac)
		}
		tb.AddRow(row...)
	}
	tb.Note = "conservation holds by construction: phase fractions sum to 1"
	return tb
}

// auditResult pools one protocol's audit outcome across runs.
type auditResult struct {
	Protocol   string        `json:"protocol"`
	Audited    int64         `json:"audited"`
	Violations int64         `json:"violations"`
	Findings   []obs.Finding `json:"findings"`
}

// writeAuditJSON emits the conformance report: one entry per audited
// protocol with pooled message counts, violation totals and findings.
func writeAuditJSON(path string, protos []experiments.Protocol, audits map[string]*auditResult) error {
	payload := make(map[string]*auditResult, len(audits))
	for _, p := range protos {
		if agg := audits[string(p)]; agg != nil {
			payload[string(p)] = agg
		}
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "audit: wrote %s\n", path)
	return nil
}

// writeFlight exports the flight recorder's span trees: span JSONL when
// the file name ends in .jsonl, Chrome trace-event JSON otherwise.
func writeFlight(path string, fl *obs.Flight) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = fl.WriteSpansJSONL(f)
	} else {
		err = fl.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// airtimeTable renders the ledger breakdown: one row per protocol, one
// column per category, each cell the fraction of the total simulated
// airtime (all runs pooled — the registry counters accumulate across
// runs sharing a protocol prefix).
func airtimeTable(protos []experiments.Protocol, ledgers map[string]*obs.Ledger, runs int) *report.Table {
	cols := append([]string{"protocol", "slots"}, obs.CategoryNames()...)
	tb := report.NewTable(
		fmt.Sprintf("airtime ledger: fraction of slots per category (%d run(s) pooled)", runs), cols...)
	for _, p := range protos {
		led := ledgers[string(p)]
		if led == nil {
			continue
		}
		snap := led.Snapshot()
		row := []any{string(p), snap.TotalSlots}
		for _, name := range obs.CategoryNames() {
			frac := 0.0
			if snap.TotalSlots > 0 {
				frac = float64(snap.Categories[name]) / float64(snap.TotalSlots)
			}
			row = append(row, frac)
		}
		tb.AddRow(row...)
	}
	tb.Note = "slot conservation holds by construction: category counts sum to slots"
	return tb
}

// writeLedgerJSON emits the machine-readable airtime report: the
// per-protocol ledger snapshots plus the merged drift summaries.
func writeLedgerJSON(path string, protos []experiments.Protocol,
	ledgers map[string]*obs.Ledger, drift map[string]analysis.DriftSummary) error {
	snaps := make(map[string]obs.LedgerSnapshot, len(ledgers))
	for _, p := range protos {
		if led := ledgers[string(p)]; led != nil {
			snaps[string(p)] = led.Snapshot()
		}
	}
	payload := struct {
		Ledgers map[string]obs.LedgerSnapshot    `json:"ledgers"`
		Drift   map[string]analysis.DriftSummary `json:"drift"`
	}{snaps, drift}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ledger: wrote %s\n", path)
	return nil
}

// writeTrace exports the tracer's buffer: JSONL when the file name ends
// in .jsonl, Chrome trace-event JSON otherwise.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

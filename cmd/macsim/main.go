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
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"relmac/internal/analysis"
	"relmac/internal/capture"
	"relmac/internal/chart"
	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/metrics"
	"relmac/internal/obs"
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

	faultCfg, err := fault.Parse(*per, *geSpec, *crashSpec, *locNoise)
	if err != nil {
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
		// the occupancy chart observing it.
		cfg := runCfg(protos[0], *seed)
		cfg.Slots = *chartSlots
		ch := chart.New(cfg.Nodes, 0, sim.Slot(*chartSlots-1))
		ch.ShowLosses = true
		cfg.Observers = []sim.Observer{ch}
		if _, err := experiments.Run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s on %d stations, first %d slots:\n\n", protos[0], cfg.Nodes, *chartSlots)
		ch.Render(os.Stdout)
		fmt.Println("\n" + chart.Legend())
		return
	}

	// A trace or span file captures exactly one run of one protocol;
	// mixing events from several engines would interleave unrelated slots.
	for _, single := range []struct{ flag, file string }{{"-trace", *traceFile}, {"-flight", *flightFile}} {
		if single.file == "" {
			continue
		}
		if len(protos) > 1 {
			fmt.Fprintf(os.Stderr, "%s: recording only the first protocol (%s)\n", single.flag, protos[0])
			protos = protos[:1]
		}
		if *runs != 1 {
			fmt.Fprintf(os.Stderr, "%s: forcing -runs 1\n", single.flag)
			*runs = 1
		}
	}
	// The stat counters ride along whenever anything else feeds the
	// registry, so /metrics always carries them.
	ledgerOn := *ledgerFile != "" || *listen != ""
	w := &experiments.Watch{
		Stats: *stats || ledgerOn || *flightStats, Ledger: ledgerOn, Drift: ledgerOn,
		TraceFile: *traceFile, FlightFile: *flightFile,
		Flight: *flightFile != "", FlightStats: *flightStats,
		Audit: *auditFile != "", Phases: *phases,
		Registry: obs.NewRegistry(), Log: os.Stderr,
	}
	if *listen != "" {
		w.Server = obs.NewMetricsServer(w.Registry)
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		go func() {
			if err := http.Serve(ln, w.Server.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics listening on http://%s\n", ln.Addr())
	}

	tb := report.NewTable(
		fmt.Sprintf("macsim: %d nodes, r=%g, %d slots, rate=%g, timeout=%d, capture=%s, %d run(s)",
			*nodes, *radius, *slots, *rate, *timeout, capModel.Name(), *runs),
		"protocol", "messages", "delivery rate", "avg contentions", "avg completion", "delivered frac")
	for _, p := range protos {
		var agg metrics.SummaryStats
		for r := 0; r < *runs; r++ {
			res, err := w.Run(runCfg(p, *seed+int64(r)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			agg.Add(res.Summary)
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
		w.PhaseTable().Render(os.Stdout)
	}
	if *stats {
		fmt.Println()
		if _, err := w.Registry.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if ledgerOn {
		fmt.Println()
		airtimeTable(protos, w.LedgerSnapshots(), *runs).Render(os.Stdout)
	}
	if *ledgerFile != "" {
		writeJSON("ledger", *ledgerFile, struct {
			Ledgers map[string]obs.LedgerSnapshot    `json:"ledgers"`
			Drift   map[string]analysis.DriftSummary `json:"drift"`
		}{w.LedgerSnapshots(), w.DriftSummaries()})
	}
	if *auditFile != "" {
		audits := w.Audits()
		writeJSON("audit", *auditFile, audits)
		var violations int64
		for _, p := range protos {
			if rep := audits[string(p)]; rep != nil {
				fmt.Fprintf(os.Stderr, "audit %s: %d messages, %d violations\n",
					p, rep.Audited, rep.Violations)
				violations += rep.Violations
			}
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

// writeJSON writes v as indented JSON to path ("-" for stdout), exiting
// on failure.
func writeJSON(what, path string, v any) {
	err := experiments.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", what, path)
	}
}

// airtimeTable renders the ledger breakdown: one row per protocol, one
// column per category, each cell the fraction of the total simulated
// airtime (all runs pooled — the registry counters accumulate across
// runs sharing a protocol prefix).
func airtimeTable(protos []experiments.Protocol, ledgers map[string]obs.LedgerSnapshot, runs int) *report.Table {
	cols := append([]string{"protocol", "slots"}, obs.CategoryNames()...)
	tb := report.NewTable(
		fmt.Sprintf("airtime ledger: fraction of slots per category (%d run(s) pooled)", runs), cols...)
	for _, p := range protos {
		snap, ok := ledgers[string(p)]
		if !ok {
			continue
		}
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

// Command experiments regenerates every table and figure of the paper's
// evaluation: Table 1, Figure 2 (frame timelines), Figure 5 (analysis)
// and Figures 6–10 (simulation sweeps). Results print as ASCII tables
// and are additionally written as CSV files under -out.
//
// Usage:
//
//	experiments -exp all -runs 100            # full fidelity (slow)
//	experiments -exp fig6a -runs 10           # one figure, reduced runs
//	experiments -exp table1,fig5              # analysis only (instant)
//	experiments -exp density -pprof :6060     # profile a sweep
//	experiments -exp fault -runs 20           # delivery/contentions vs PER
//	experiments -exp density -per 0.05        # any sweep under 5% frame loss
//
// Sweeps print per-point progress/ETA lines on stderr; silence them
// with -progress=false.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/report"

	_ "net/http/pprof"
)

func main() {
	exp := flag.String("exp", "all",
		"comma-separated experiments: table1,fig2,fig5,fig6a,fig6b,fig7,fig8,fig9a,fig9b,fig10a,fig10b,density,rate,all, plus extensions: mobility,gpserr,overhead,fault,faultburst,drift")
	runs := flag.Int("runs", 10, "simulation runs per plotted point (paper: 100)")
	slots := flag.Int("slots", 10000, "simulated slots per run")
	out := flag.String("out", "results", "directory for CSV output (empty disables)")
	withPlain := flag.Bool("plain80211", false, "include the stock unreliable 802.11 multicast")
	progress := flag.Bool("progress", true, "print per-sweep-point progress/ETA lines on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the duration of the sweeps")
	per := flag.Float64("per", 0, "fault: i.i.d. per-link packet error rate applied to every sweep run")
	geSpec := flag.String("ge", "", "fault: Gilbert–Elliott bursty channel, pGoodBad:pBadGood:perBad[:perGood]")
	crashSpec := flag.String("crash", "", "fault: node crash schedule, mttf:mttr in slots")
	locNoise := flag.Float64("locnoise", 0, "fault: stddev of the Gaussian location error LAMM sees")
	listen := flag.String("listen", "", "serve live sweep metrics on this address (e.g. :9090): /metrics is Prometheus text (airtime ledger + sweep progress/ETA gauges), /snapshot is JSON")
	phases := flag.Bool("phases", false, "attach the engine phase profiler to every sweep run and print the pooled per-protocol phase breakdown after the sweeps (byte-identical results either way)")
	flightDir := flag.String("flight-dir", "", fmt.Sprintf("drift experiment: dump per-message lifecycle span traces (JSONL, one file per run) into this directory for any protocol whose weighted drift exceeds experiments.DriftTolerance (%.2f)", experiments.DriftTolerance))
	flag.Parse()

	faultCfg, err := fault.Parse(*per, *geSpec, *crashSpec, *locNoise)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The sweeps fix every other run parameter; -slots is the one the
	// flags set, so it is checked before any sweep starts.
	probe := experiments.Defaults(experiments.BMMM, 0)
	probe.Slots = *slots
	if err := probe.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *progress {
		experiments.Progress.W = os.Stderr
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
	}
	// Every sweep run gets fresh surfaces from one Watch: the phase
	// timer with -phases, and with -listen the airtime ledger (its
	// registry counters pool across runs per protocol prefix), served
	// alongside the sweep progress/ETA gauges. Sweep snapshots both hooks
	// at entry, so they are installed once, up front.
	w := &experiments.Watch{Phases: *phases}
	if *listen != "" {
		w.Ledger, w.Registry = true, obs.NewRegistry()
		w.Server = obs.NewMetricsServer(w.Registry)
		st := &experiments.SweepStatus{}
		experiments.Progress.Status = st
		w.Server.Gauge("sweep.progress", st.Fraction)
		w.Server.Gauge("sweep.eta_seconds", st.ETASeconds)
		w.Server.Gauge("sweep.elapsed_seconds", st.ElapsedSeconds)
		w.Server.Extra("sweep", func() any { return st.Snapshot() })
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
	if w.Phases || w.Ledger {
		experiments.Instrument = w.Attach
	}

	o := experiments.Options{Runs: *runs, Slots: *slots, Fault: faultCfg, FlightDir: *flightDir}
	if *withPlain {
		o.Protocols = experiments.AllProtocols
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	anyDensity := all || want["density"] || want["fig6a"] || want["fig9a"] || want["fig10a"]
	anyRate := all || want["rate"] || want["fig6b"] || want["fig9b"] || want["fig10b"]

	emit := func(tb *report.Table, csvName string) {
		tb.Render(os.Stdout)
		if *out != "" {
			path := filepath.Join(*out, csvName)
			if err := tb.WriteCSV(path); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("(csv: %s)\n\n", path)
		}
	}
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if all || want["table1"] {
		emit(experiments.TableOne(), "table1.csv")
	}
	if all || want["fig2"] {
		text, err := experiments.Fig2()
		fail(err)
		fmt.Println(text)
		if *out != "" {
			fail(os.MkdirAll(*out, 0o755))
			fail(os.WriteFile(filepath.Join(*out, "fig2.txt"), []byte(text), 0o644))
		}
	}
	if all || want["fig5"] {
		emit(experiments.Fig5(25), "fig5.csv")
	}
	if anyDensity {
		start := time.Now()
		f6a, f9a, f10a, err := experiments.Density(o)
		fail(err)
		fmt.Printf("(density sweep: %d runs/point, %v)\n", *runs, time.Since(start).Round(time.Second))
		if all || want["density"] || want["fig6a"] {
			emit(f6a, "fig6a.csv")
		}
		if all || want["density"] || want["fig9a"] {
			emit(f9a, "fig9a.csv")
		}
		if all || want["density"] || want["fig10a"] {
			emit(f10a, "fig10a.csv")
		}
	}
	if anyRate {
		start := time.Now()
		f6b, f9b, f10b, err := experiments.Rate(o)
		fail(err)
		fmt.Printf("(rate sweep: %d runs/point, %v)\n", *runs, time.Since(start).Round(time.Second))
		if all || want["rate"] || want["fig6b"] {
			emit(f6b, "fig6b.csv")
		}
		if all || want["rate"] || want["fig9b"] {
			emit(f9b, "fig9b.csv")
		}
		if all || want["rate"] || want["fig10b"] {
			emit(f10b, "fig10b.csv")
		}
	}
	if all || want["fig7"] {
		start := time.Now()
		tb, err := experiments.Fig7(o)
		fail(err)
		fmt.Printf("(timeout sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "fig7.csv")
	}
	if want["mobility"] {
		start := time.Now()
		tb, err := experiments.Mobility(o)
		fail(err)
		fmt.Printf("(mobility sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "mobility.csv")
	}
	if want["overhead"] {
		start := time.Now()
		tb, err := experiments.Overhead(o)
		fail(err)
		fmt.Printf("(overhead sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "overhead.csv")
	}
	if want["fault"] {
		start := time.Now()
		// FaultPER defaults to its own protocol set (BMW/BMMM/LAMM) and
		// owns the PER axis; other impairments from the flags ride along.
		deliv, cont, err := experiments.FaultPER(o)
		fail(err)
		fmt.Printf("(fault PER sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(deliv, "fault_delivery.csv")
		emit(cont, "fault_contentions.csv")
	}
	if want["faultburst"] {
		start := time.Now()
		tb, err := experiments.FaultBurst(o)
		fail(err)
		fmt.Printf("(fault burst sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "fault_burst.csv")
	}
	if want["drift"] {
		start := time.Now()
		tb, _, err := experiments.Drift(o)
		fail(err)
		fmt.Printf("(drift run: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "drift.csv")
	}
	if want["gpserr"] {
		start := time.Now()
		tb, err := experiments.LocationError(o)
		fail(err)
		fmt.Printf("(gps-error sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "gpserr.csv")
	}
	if all || want["fig8"] {
		start := time.Now()
		tb, err := experiments.Fig8(o)
		fail(err)
		fmt.Printf("(threshold sweep: %v)\n", time.Since(start).Round(time.Second))
		emit(tb, "fig8.csv")
	}
	if *phases {
		fmt.Println()
		w.PhaseTable().Render(os.Stdout)
	}
}

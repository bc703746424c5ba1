// Command experiments regenerates every table and figure of the paper's
// evaluation: Table 1, Figure 2 (frame timelines), Figure 5 (analysis)
// and Figures 6–10 (simulation sweeps). Results print as ASCII tables
// and are additionally written as CSV files under -out.
//
// Usage:
//
//	experiments -h                            # every experiment -exp accepts
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
	"slices"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/obs"

	_ "net/http/pprof"
)

func main() {
	exp := flag.String("exp", "all",
		"comma-separated experiments, or single output files by base name: "+experiments.Known())
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

	want, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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

	o := experiments.Options{Runs: *runs, Slots: *slots, Fault: faultCfg, FlightDir: *flightDir}
	if *withPlain {
		o.Protocols = experiments.AllProtocols
	}
	if *progress {
		o.Progress.W = os.Stderr
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
	// alongside the sweep progress/ETA gauges.
	w := &experiments.Watch{Phases: *phases}
	if *listen != "" {
		w.Ledger, w.Registry = true, obs.NewRegistry()
		w.Server = obs.NewMetricsServer(w.Registry)
		st := &experiments.SweepStatus{}
		o.Progress.Status = st
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
		o.Watch = w
	}

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, s := range experiments.Studies {
		if !slices.ContainsFunc(s.Files, func(f string) bool { return want[f] }) {
			continue
		}
		start := time.Now()
		outs, err := s.Run(o)
		fail(err)
		if s.Sweep {
			fmt.Printf("(%s: %d runs/point, %v)\n", s.Name, *runs, time.Since(start).Round(time.Second))
		}
		for i, f := range s.Files {
			if want[f] {
				fail(emit(outs[i], *out, f))
			}
		}
	}
	if *phases {
		fmt.Println()
		w.PhaseTable().Render(os.Stdout)
	}
}

// emit prints one study output and, when dir is set, writes it there as
// file.
func emit(o experiments.Output, dir, file string) error {
	path := filepath.Join(dir, file)
	if o.Table == nil {
		fmt.Println(o.Text)
		if dir == "" {
			return nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(o.Text), 0o644)
	}
	o.Table.Render(os.Stdout)
	if dir == "" {
		return nil
	}
	if err := o.Table.WriteCSV(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("(csv: %s)\n\n", path)
	return nil
}

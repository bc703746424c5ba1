// Command relbench is the benchmark-regression harness: it measures
// engine slot throughput on the optimized and reference paths, per-slot
// allocation pressure and per-protocol sweep wall time, writes the
// results to BENCH.json, and compares them against the committed
// BENCH_BASELINE.json.
//
// Usage:
//
//	go run ./cmd/relbench [-quick] [-json] [-out BENCH.json]
//	                      [-baseline BENCH_BASELINE.json] [-tolerance 0.25]
//	                      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The baseline gate rests only on machine-independent quantities — the
// reference/optimized speedup ratio and exact allocations per slot —
// so the committed baseline is valid on any machine; absolute
// nanoseconds are recorded as advisory context, and a host-metadata
// mismatch against the baseline surfaces as an advisory note. A baseline
// pinned under another report schema fails the gate until it is
// re-pinned. -cpuprofile/-memprofile write pprof profiles of the
// measurement suite itself, for digging into *why* a measurement got
// slower once the report says *where*. Exit status is 1 when a regression
// exceeds the tolerance band, 2 on a measurement failure.
//
// To refresh the baseline after an intentional performance change, run
// both profiles and merge the reports:
//
//	go run ./cmd/relbench -quick -out /tmp/q.json
//	go run ./cmd/relbench -out /tmp/f.json
//
// then update BENCH_BASELINE.json's "quick"/"full" entries from them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"relmac/internal/relbench"
)

func main() {
	// Exit via a return code so the profile-writing defers inside run
	// always fire; os.Exit would skip them.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "use the CI smoke profile instead of the full profile")
	jsonOut := flag.Bool("json", false, "print the report as JSON to stdout")
	out := flag.String("out", "BENCH.json", "path to write the report (empty disables)")
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "baseline to compare against (missing file skips the gate)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional slack before a regression is flagged")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement suite to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	flag.Parse()

	profile := relbench.Full
	if *quick {
		profile = relbench.Quick
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "relbench: wrote CPU profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "relbench:", err)
				return
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "relbench:", err)
			} else {
				fmt.Fprintf(os.Stderr, "relbench: wrote heap profile to %s\n", *memprofile)
			}
			f.Close()
		}()
	}

	report, err := relbench.Measure(profile, func(line string) {
		fmt.Fprintln(os.Stderr, "relbench:", line)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		return 2
	}

	if *out != "" {
		if err := relbench.WriteReport(*out, report); err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			return 2
		}
	} else {
		fmt.Printf("profile %s: optimized %.0f ns/slot (%.2f allocs/slot), reference %.0f ns/slot, speedup %.2fx\n",
			report.Profile, report.Engine.Optimized.NsPerSlot,
			report.Engine.Optimized.AllocsPerSlot,
			report.Engine.Reference.NsPerSlot, report.Engine.Speedup)
		if s := report.Sparse; s != nil {
			fmt.Printf("  sparse: optimized %.0f ns/slot (%.2f allocs/slot), reference %.0f ns/slot, speedup %.2fx\n",
				s.Optimized.NsPerSlot, s.Optimized.AllocsPerSlot,
				s.Reference.NsPerSlot, s.Speedup)
		}
		for _, p := range report.Protocols {
			fmt.Printf("  %-8s %6d slots in %8.1f ms (%.0f slots/sec)\n",
				p.Protocol, p.Slots, p.WallMs, p.SlotsPerSec)
		}
	}

	base, err := relbench.LoadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		return 2
	}
	regressions, advisories := relbench.Compare(report, base, *tolerance)
	for _, a := range advisories {
		fmt.Fprintln(os.Stderr, "relbench: note:", a)
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "relbench: REGRESSION:", r)
	}
	if len(regressions) > 0 {
		return 1
	}
	return 0
}

// Command perfbench is the repository's benchmark. Each invocation times
// one workload — a fixed list of experiments.Run configurations generated
// from --seed — from a single goroutine in a closed loop: each run starts
// when the previous one returns. It never uses experiments.Sweep, whose
// NumCPU-wide pool would share the host's cores with the GC.
//
// An untraced invocation (--trace 0) does one untimed warm-up pass, then
// timed passes with a forced GC before each until --seconds have passed,
// interleaved with set-up passes (every run with Slots: 0), then one
// profiled pass. Timings come from the lower envelope of the timed passes,
// each run's fastest instance, and from the fastest set-up pass; a
// pipeline takes medians across invocations. It prints wall_s, cpu_s,
// setup_s, peak_rss_mb and ok_frac.
//
// A traced invocation (--trace 1) prints the per-layer metrics instead:
// engine phases from a prof.PhaseTimer, per-protocol run cost, topology
// build time, the overhead of each observation surface, of the faults and
// of the tracing itself, and Go runtime allocation counts. It records one
// span per experiments.Run (and per timed topo.Uniform) with the phase
// totals as children, and writes them to .bench_build/spans when it ends.
//
// Not measured: sim/tilepar and the seam-merge phase (the parallel tile
// resolver is off on every user path measured here), the prof package's
// own internals (only its phase totals are read), and the relmaclint
// analyzers (a build-time tool).
//
// --selfcheck N runs each workload N times in child processes with
// consecutive seeds and BENCHMARK.json's run length, and prints each
// end-to-end metric's median, quartiles and spread against its bound.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"relmac/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", HeldOutSeed))
	seconds := fs.Float64("seconds", 20, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	selfN := fs.Int("selfcheck", 0, "run each workload (or --workload) this many times in child processes and report each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fmt.Fprintln(stdout, hostLine())
	if *selfN > 0 {
		return selfcheck(stdout, stderr, *name, *selfN, *seed)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = traced(w, *seed, budget, stdout)
	} else {
		res, err = endToEndRun(w, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// minPasses is the fewest timed passes an invocation makes, however short
// --seconds is.
const minPasses = 3

// setupPerPass is how many set-up passes follow each timed pass.
const setupPerPass = 3

// endToEndRun measures the workload's end-to-end metrics.
func endToEndRun(w *workload, budget time.Duration, stdout io.Writer) (result, error) {
	own := w.own()
	cfgs := w.runs(own)
	setupKind := own
	setupKind.setup = true
	setupCfgs := w.runs(setupKind)

	warm, err := runPass(cfgs, own)
	if err != nil {
		return result{}, err
	}
	printSim(stdout, w, warm)

	var timed []pass
	setup := time.Duration(math.MaxInt64)
	start := time.Now()
	for len(timed) < minPasses || time.Since(start) < budget {
		p, err := runPass(cfgs, own)
		if err != nil {
			return result{}, err
		}
		timed = append(timed, p)
		for i := 0; i < setupPerPass; i++ {
			sp, err := runPass(setupCfgs, setupKind)
			if err != nil {
				return result{}, err
			}
			setup = min(setup, sp.wall)
		}
	}
	profKind := own
	profKind.profiled = true
	profiled, err := runPass(cfgs, profKind)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	failed := checkRuns(warm, append(timed, profiled))
	env := envelope(timed)
	fmt.Fprintf(stdout, "# %s: %d timed passes, envelope %.4f s, fastest pass %.4f s, setup %.6f s; pass walls (ms):",
		w.name, len(timed), env.wall.Seconds(), timed[fastest(timed)].wall.Seconds(), setup.Seconds())
	for _, p := range timed {
		fmt.Fprintf(stdout, " %.0f", float64(p.wall.Microseconds())/1e3)
	}
	fmt.Fprintln(stdout)
	res := result{
		Correct:   failed == 0 && profiled.conserved(),
		Attempted: len(cfgs),
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(endToEnd, name)} }
	set("wall_s", env.wall.Seconds())
	set("cpu_s", env.cpu.Seconds())
	set("setup_s", setup.Seconds())
	set("peak_rss_mb", rss)
	set("ok_frac", float64(len(cfgs)-failed)/float64(len(cfgs)))
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// printSim prints the workload's simulated outputs — per-protocol mean
// delivery rate and message count — which a speed-only change must leave
// identical. They are printed, not gated.
func printSim(w io.Writer, wl *workload, p pass) {
	fmt.Fprintf(w, "# %s: %d runs, %d slots\n", wl.name, len(p.runs), p.slots())
	var total int
	for _, proto := range experiments.AllProtocols {
		var rate float64
		var runs, msgs int
		for _, r := range p.runs {
			if r.protocol == proto {
				rate += r.summary.SuccessRate
				msgs += r.summary.Messages
				runs++
			}
		}
		if runs > 0 {
			fmt.Fprintf(w, "# sim %-7s runs %3d  mean delivery rate %.6f  traffic.messages %d\n",
				proto, runs, rate/float64(runs), msgs)
			total += msgs
		}
	}
	fmt.Fprintf(w, "# sim total traffic.messages %d\n", total)
}

// hostLine records the host in every output.
func hostLine() string {
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d go=%s os=%s arch=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

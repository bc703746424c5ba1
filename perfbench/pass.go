package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/metrics"
	"relmac/internal/obs"
	"relmac/internal/prof"
	"relmac/internal/sim"
)

// runOut is what one run leaves behind for the output checks and the
// printed simulated statistics.
type runOut struct {
	protocol experiments.Protocol
	slots    int
	summary  metrics.Summary
	degree   float64
	ledger   *obs.LedgerSnapshot
	findings int // -1 when no auditor was attached
	erasures int64
	downs    int64
	start    time.Time    // when the experiments.Run call began
	ns       int64        // its wall time
	cpuNs    int64        // the process's CPU time over it, GC workers included
	report   *prof.Report // profiled passes: the run's phase report
}

// pass is one sweep over a run list.
type pass struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	runs      []runOut
}

// runPass runs cfgs serially from the calling goroutine, each run starting
// when the previous one returns, after a forced GC. Each run's outputs are
// read as soon as it returns, so a pass holds one run's state at a time.
func runPass(cfgs []experiments.RunConfig, k passKind) (pass, error) {
	p := pass{runs: make([]runOut, len(cfgs))}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	for i, cfg := range cfgs {
		r, err := runOne(cfg, k)
		if err != nil {
			return p, fmt.Errorf("run %d (%s): %w", i, cfg.Protocol, err)
		}
		p.runs[i] = r
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	return p, nil
}

// runOne runs one configuration with the pass kind's surfaces and timer
// attached, timing the experiments.Run call alone.
func runOne(cfg experiments.RunConfig, k passKind) (runOut, error) {
	r := runOut{protocol: cfg.Protocol, slots: cfg.Slots, findings: -1}
	pr, err := attach(&cfg, k.surf)
	if err != nil {
		return r, err
	}
	var pt *prof.PhaseTimer
	if k.profiled {
		pt = prof.New()
		cfg.Profiler = pt
	}
	c0 := cpuTime()
	r.start = time.Now()
	res, err := experiments.Run(cfg)
	r.ns = time.Since(r.start).Nanoseconds()
	r.cpuNs = (cpuTime() - c0).Nanoseconds()
	if err != nil {
		return r, err
	}
	r.summary, r.degree = res.Summary, res.AvgDegree
	if pr.ledger != nil {
		s := pr.ledger.Snapshot()
		r.ledger = &s
	}
	if pr.auditor != nil {
		r.findings = len(pr.auditor.Findings())
	}
	if inj := res.Fault; inj != nil {
		iid, ge := inj.Erasures()
		_, r.downs = inj.CrashStats()
		r.erasures = iid + ge
	}
	if pt != nil {
		rep := pt.Report()
		r.report = &rep
	}
	return r, nil
}

// cpuTime is the process's user+sys CPU time, every thread included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slots is the simulated slot count of the pass.
func (p *pass) slots() int64 {
	var n int64
	for _, r := range p.runs {
		n += int64(r.slots)
	}
	return n
}

// digest fingerprints a run's simulated outputs: its summary and average
// degree, plus the ledger snapshot and auditor finding count when those
// surfaces were attached. Host timings are not part of it.
func digest(r runOut) string {
	b, err := json.Marshal(struct {
		S        metrics.Summary
		Degree   float64
		Ledger   *obs.LedgerSnapshot `json:",omitempty"`
		Findings int
	}{r.summary, r.degree, r.ledger, r.findings})
	if err != nil {
		panic(err) // plain structs of numbers and maps always marshal
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// valid reports the run's output invariants, none of which depend on a
// golden: rates in range, traffic present, completions bounded by
// messages, ledger conservation and a clean conformance audit.
func valid(r runOut) bool {
	s := r.summary
	if s.SuccessRate < 0 || s.SuccessRate > 1 || s.Messages <= 0 || s.CompletedCount > s.Messages {
		return false
	}
	if r.ledger != nil && !r.ledger.Conserved() {
		return false
	}
	return r.findings <= 0
}

// checkRuns counts the runs of ref that fail: a run fails when its
// invariants do not hold or when its digest differs in any other pass of
// the same run list.
func checkRuns(ref pass, others []pass) (failed int) {
	for i, r := range ref.runs {
		ok := valid(r)
		d := digest(r)
		for _, o := range others {
			ok = ok && digest(o.runs[i]) == d
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// sameSummaries reports whether two passes over the same runs produced
// identical summaries: attaching surfaces must not change a trajectory.
func sameSummaries(a, b pass) bool {
	for i := range a.runs {
		if a.runs[i].summary != b.runs[i].summary {
			return false
		}
	}
	return len(a.runs) == len(b.runs)
}

// fastest returns the index of the pass with the least wall time, the
// first on ties; -1 for none.
func fastest(ps []pass) int {
	best := -1
	for i, p := range ps {
		if best < 0 || p.wall < ps[best].wall {
			best = i
		}
	}
	return best
}

// envelope is the lower envelope of passes over one run list: each run's
// fastest instance across them. Its wall and cpu sum those instances.
func envelope(ps []pass) pass {
	env := pass{runs: append([]runOut(nil), ps[0].runs...)}
	for _, p := range ps[1:] {
		for i, r := range p.runs {
			if r.ns < env.runs[i].ns {
				env.runs[i] = r
			}
		}
	}
	for _, r := range env.runs {
		env.wall += time.Duration(r.ns)
		env.cpu += time.Duration(r.cpuNs)
	}
	return env
}

// phaseNs is the named phase's engine ns over a profiled pass.
func (p *pass) phaseNs(name string) int64 {
	var ns int64
	for _, r := range p.runs {
		ns += r.report.PhaseNs(name)
	}
	return ns
}

// conserved reports whether a profiled pass's phase totals, every phase
// included, sum exactly to the timers' engine wall time, run by run.
func (p *pass) conserved() bool {
	for _, r := range p.runs {
		if r.report == nil {
			return false
		}
		var sum int64
		for ph := 0; ph < sim.NumPhases; ph++ {
			sum += r.report.PhaseNs(sim.Phase(ph).String())
		}
		if sum != r.report.WallNs {
			return false
		}
	}
	return true
}

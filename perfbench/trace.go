package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/obs"
	"relmac/internal/topo"
)

// span is one traced interval. Root spans are public calls; the children
// of an experiments.Run span are the PhaseTimer's per-phase totals, which
// carry no start of their own.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Run      int    `json:"run"`
	Protocol string `json:"protocol,omitempty"`
	StartNs  int64  `json:"start_ns,omitempty"`
	DurNs    int64  `json:"dur_ns"`
	// SelfNs is a run's wall time outside the engine phases: building the
	// topology, engine and MACs, and summarising.
	SelfNs int64 `json:"self_ns,omitempty"`
}

// spanDir is where a traced run writes its spans, inside the checkout.
const spanDir = ".bench_build/spans"

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// addRuns records a profiled pass: one span per experiments.Run with its
// phase totals as children.
func (l *spanLog) addRuns(p pass) {
	for i, r := range p.runs {
		rep := r.report
		root := l.add(span{
			Name: "experiments.Run", Run: i, Protocol: string(r.protocol),
			StartNs: r.start.Sub(l.epoch).Nanoseconds(), DurNs: r.ns,
			SelfNs: r.ns - rep.WallNs,
		})
		for _, ph := range rep.Phases {
			if ph.Ns > 0 {
				l.add(span{Parent: root, Name: "sim." + ph.Phase, Run: i, DurNs: ph.Ns})
			}
		}
	}
}

// write emits a header line with the host and workload, then one JSON
// line per span.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]string{"host": strings.TrimPrefix(hostLine(), "# "), "workload": workload, "seed": fmt.Sprint(seed)})
	for i := 0; err == nil && i < len(l.spans); i++ {
		err = enc.Encode(l.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// variant is one pass kind the traced invocation times, by label.
type variant struct {
	label string
	kind  passKind
}

// variants lists the traced invocation's pass kinds. Labels whose kind
// coincides on this workload share passes: on fig6a-density the bare
// list is the workload itself.
func (w *workload) variants() []variant {
	own := w.own()
	profiled := own
	profiled.profiled = true
	bare := passKind{faults: w.faults}
	probe := 0
	if !w.faults && w.points[0].Slots > faultHorizon {
		probe = faultHorizon
	}
	return []variant{
		{"own", own},
		{"traced", profiled},
		{"bare", bare},
		{"ledger", passKind{surf: withLedger, faults: w.faults}},
		{"flight", passKind{surf: withFlight, faults: w.faults}},
		{"auditor", passKind{surf: withAuditor, faults: w.faults}},
		{"all", passKind{surf: allSurfaces, faults: w.faults}},
		{"nofault", passKind{slots: probe}},
		{"faulted", passKind{faults: true, slots: probe}},
		{"protocols", passKind{faults: w.faults, allProtos: len(w.protocols) < len(experiments.AllProtocols)}},
	}
}

// topoReps is how many times the traced run times the topology builds.
const topoReps = 5

// traced measures the workload's per-layer metrics.
func traced(w *workload, seed int64, budget time.Duration, stdout io.Writer) (result, error) {
	log := &spanLog{epoch: time.Now()}
	own := w.own()
	cfgs := w.runs(own)
	warm, err := runPass(cfgs, own)
	if err != nil {
		return result{}, err
	}
	printSim(stdout, w, warm)

	// Time the distinct kinds interleaved run by run: each round runs run
	// i of every kind before run i+1 of any, so slow spells on the host
	// land on all kinds alike and every overhead is a paired comparison.
	vs := w.variants()
	var kinds []passKind
	byLabel := map[string]int{}
	for _, v := range vs {
		idx := -1
		for i, k := range kinds {
			if k == v.kind {
				idx = i
			}
		}
		if idx < 0 {
			idx = len(kinds)
			kinds = append(kinds, v.kind)
		}
		byLabel[v.label] = idx
	}
	lists := make([][]experiments.RunConfig, len(kinds))
	longest := 0
	for i, k := range kinds {
		lists[i] = w.runs(k)
		longest = max(longest, len(lists[i]))
	}
	passes := make([][]pass, len(kinds))
	start := time.Now()
	var round time.Duration
	for len(passes[0]) == 0 || time.Since(start)+round <= budget {
		t0 := time.Now()
		runtime.GC()
		for k := range kinds {
			passes[k] = append(passes[k], pass{runs: make([]runOut, len(lists[k]))})
		}
		for i := 0; i < longest; i++ {
			for k, kind := range kinds {
				if i >= len(lists[k]) {
					continue
				}
				r, err := runOne(lists[k][i], kind)
				if err != nil {
					return result{}, fmt.Errorf("run %d (%s): %w", i, lists[k][i].Protocol, err)
				}
				ps := passes[k]
				ps[len(ps)-1].runs[i] = r
			}
		}
		round = time.Since(t0)
	}
	best := func(label string) pass { return envelope(passes[byLabel[label]]) }
	// Allocation counts need MemStats deltas over one more whole pass.
	whole, err := runPass(cfgs, own)
	if err != nil {
		return result{}, err
	}

	ownPasses, tracedPasses := passes[byLabel["own"]], passes[byLabel["traced"]]
	failed := checkRuns(warm, append(append([]pass{whole}, ownPasses...), tracedPasses...))
	correct := failed == 0
	for _, p := range tracedPasses {
		correct = correct && p.conserved()
	}
	// Surfaces must not change a trajectory, and every run they watch must
	// pass the output invariants.
	for _, label := range []string{"bare", "ledger", "flight", "auditor", "all"} {
		for _, p := range passes[byLabel[label]] {
			correct = correct && sameSummaries(warm, p)
			for _, r := range p.runs {
				correct = correct && valid(r)
			}
		}
	}

	res := result{Correct: correct, Attempted: len(cfgs), Failed: failed, Metrics: map[string]value{}}
	defs := perLayer()
	set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(defs, name)} }

	ownBest, tr := best("own"), best("traced")
	slots := float64(tr.slots())
	for _, ph := range phaseNames() {
		set("sim."+ph+".ns_per_slot", float64(tr.phaseNs(ph))/slots)
	}
	set("sim.slots", slots)
	var msgs int
	for _, r := range warm.runs {
		msgs += r.summary.Messages
	}
	set("traffic.messages", float64(msgs))
	set("trace.overhead_frac", overhead(tr, ownBest))
	log.addRuns(tr)

	var total int64
	cats := map[string]int64{}
	for _, r := range best("ledger").runs {
		total += r.ledger.TotalSlots
		for _, c := range []obs.Category{obs.CatIdle, obs.CatCollision, obs.CatData} {
			cats[c.String()] += r.ledger.Categories[c.String()]
		}
	}
	set("ledger.idle_frac", float64(cats[obs.CatIdle.String()])/float64(total))
	set("ledger.collision_frac", float64(cats[obs.CatCollision.String()])/float64(total))
	set("ledger.data_frac", float64(cats[obs.CatData.String()])/float64(total))

	// Each protocol's runs, timed around experiments.Run.
	protos := best("protocols")
	for _, proto := range experiments.AllProtocols {
		var ns, sl int64
		for _, r := range protos.runs {
			if r.protocol == proto {
				ns += r.ns
				sl += int64(r.slots)
			}
		}
		set("mac."+protoKey(proto)+".ns_per_slot", float64(ns)/float64(sl))
	}

	buildS, degree := timeTopologies(cfgs, log)
	set("topo.build_s", buildS)
	set("topo.avg_degree", degree)

	bare := best("bare")
	for _, s := range []string{"ledger", "flight", "auditor", "all"} {
		set("obs."+s+".overhead_frac", overhead(best(s), bare))
	}
	faulted := best("faulted")
	set("fault.overhead_frac", overhead(faulted, best("nofault")))
	var erasures, downs int64
	for _, r := range faulted.runs {
		erasures += r.erasures
		downs += r.downs
	}
	set("fault.erasures", float64(erasures))
	set("fault.crash_downs", float64(downs))

	set("runtime.allocs_per_slot", float64(whole.mallocs)/slots)
	set("runtime.bytes_per_slot", float64(whole.bytes)/slots)
	set("runtime.gc_cycles", float64(whole.gcs))

	fmt.Fprintf(stdout, "# %s: %d interleaved rounds over %d pass kinds; traced %.4f s vs untraced %.4f s\n",
		w.name, len(passes[0]), len(kinds), tr.wall.Seconds(), ownBest.wall.Seconds())
	path, err := log.write(spanDir, w.name, seed)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(log.spans), path)
	return res, nil
}

// overhead is p's extra wall time over base, as a share of base.
func overhead(p, base pass) float64 {
	return p.wall.Seconds()/base.wall.Seconds() - 1
}

// timeTopologies times topo.Uniform with each run's own node count,
// radius and seed, as experiments.Run builds it, and returns the fastest
// of topoReps passes with the mean average degree. The last pass is
// recorded as spans.
func timeTopologies(cfgs []experiments.RunConfig, log *spanLog) (seconds, degree float64) {
	bestNs := int64(-1)
	for rep := 0; rep < topoReps; rep++ {
		var ns int64
		degree = 0
		for i, cfg := range cfgs {
			rng := rand.New(rand.NewSource(cfg.Seed))
			t0 := time.Now()
			tp := topo.Uniform(cfg.Nodes, cfg.Radius, rng)
			d := time.Since(t0).Nanoseconds()
			ns += d
			degree += tp.AvgDegree()
			if rep == topoReps-1 {
				log.add(span{Name: "topo.Uniform", Run: i, Protocol: string(cfg.Protocol),
					StartNs: t0.Sub(log.epoch).Nanoseconds(), DurNs: d})
			}
		}
		if bestNs < 0 || ns < bestNs {
			bestNs = ns
		}
	}
	return float64(bestNs) / 1e9, degree / float64(len(cfgs))
}

// Package experiments defines and runs the simulation studies that
// regenerate every table and figure of the paper's evaluation (§6–§7):
// Table 1, Figure 2 (timeline), Figure 5 (analysis) and Figures 6–10
// (simulation sweeps over nodal density, message generation rate,
// timeout and reliability threshold).
//
// A single simulation run follows the paper's Table 2 defaults: 100
// nodes uniform in the unit square, radius 0.2, 10 000 slots, timeout
// 100 slots, traffic mix 0.2/0.4/0.4, generation rate 0.0005 per node
// per slot, reliability threshold 90%, DS capture per Zorzi–Rao. Every
// plotted point averages many independent runs; runs execute in parallel
// on a worker pool with deterministic per-run seeds.
package experiments

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"relmac/internal/baseline/bmw"
	"relmac/internal/baseline/dcf"
	"relmac/internal/baseline/kuri"
	"relmac/internal/baseline/tgbcast"
	"relmac/internal/capture"
	"relmac/internal/core"
	"relmac/internal/fault"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/mobility"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// Protocol identifies one of the simulated MAC protocols.
type Protocol string

// The five protocols of the study. Plain80211 is the unreliable stock
// multicast (not plotted in the paper but a useful floor); the other
// four are the paper's comparison set.
const (
	Plain80211 Protocol = "802.11"
	BSMA       Protocol = "BSMA"
	BMW        Protocol = "BMW"
	BMMM       Protocol = "BMMM"
	LAMM       Protocol = "LAMM"
	// KKLeader is the leader-based reliable multicast of Kuri and Kasera
	// (reference [13] of the paper) — not part of the paper's evaluation,
	// included as an extra comparison point.
	KKLeader Protocol = "KK-Leader"
)

// PaperProtocols is the comparison set of the paper's figures, in
// plotting order.
var PaperProtocols = []Protocol{BSMA, BMW, BMMM, LAMM}

// AllProtocols additionally includes the stock 802.11 multicast.
var AllProtocols = []Protocol{Plain80211, BSMA, BMW, BMMM, LAMM}

// ExtendedProtocols adds the comparison points beyond the paper's set.
var ExtendedProtocols = []Protocol{Plain80211, BSMA, KKLeader, BMW, BMMM, LAMM}

// Factory returns the MAC factory for a protocol.
func Factory(p Protocol, cfg mac.Config) (func(node int, env *sim.Env) sim.MAC, error) {
	switch p {
	case Plain80211:
		return dcf.NewPlain(cfg), nil
	case BSMA:
		return tgbcast.NewBSMA(cfg), nil
	case BMW:
		return bmw.New(cfg), nil
	case BMMM:
		return core.NewBMMM(cfg), nil
	case LAMM:
		return core.NewLAMM(cfg), nil
	case KKLeader:
		return kuri.New(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown protocol %q", p)
	}
}

// RunConfig fully describes one simulation run.
type RunConfig struct {
	Protocol  Protocol
	Nodes     int
	Radius    float64
	Slots     int
	Timeout   int
	Rate      float64
	Mix       traffic.Mix
	Threshold float64
	Capture   capture.Model
	// Speed, when positive, moves the stations by random waypoint at
	// this speed (unit-square units per slot), refreshing the topology
	// every beaconEvery slots. Zero keeps the paper's static placement.
	Speed float64
	// Fault configures the impairment subsystem (internal/fault): i.i.d.
	// packet error rate, Gilbert–Elliott bursty links, node crashes and
	// LAMM location noise. The zero value is a true no-op — results are
	// byte-identical to a faultless run at the same seed. When
	// Fault.Seed is zero it is derived from Seed, so the seedFor scheme
	// stays the single source of randomness.
	Fault fault.Config
	MAC   mac.Config
	// ExposedTerminal turns on the engine's location-aware
	// exposed-terminal option (sim.Config.ExposedTerminal), the paper's
	// §8 future work. Off in the paper's setup.
	ExposedTerminal bool
	Seed            int64
	// Observers is the engine's subscription list (sim.Config): each
	// entry receives the event kinds it declares, in list order. The
	// metrics collector goes first, so it sees each event before the
	// observers listed here.
	Observers []sim.Observer
	// Lifecycles and SlotObservers subscribe nothing; they are kept so
	// that callers which fill them still compile. Validate rejects an
	// entry on them that is not also on Observers, so no such caller
	// silently loses its events.
	Lifecycles, SlotObservers []sim.Observer
	// Reference runs the engine's naive path (sim.Config.Reference) and,
	// for LAMM, disables the MCS memo. Results are bit-identical with the
	// flag on and off; it exists for the equivalence tests, the
	// optimization census and BenchmarkEngineThroughputReference.
	Reference bool
	// EventTraffic has no effect; it is kept so that callers which set
	// it still compile. Every run draws arrivals by geometric
	// inter-arrival gaps (traffic.Generator) and can skip idle slots.
	EventTraffic bool
	// Profiler attaches a runtime phase profiler to the engine
	// (sim.Config.Profiler) — typically a prof.PhaseTimer. Profilers
	// are PRNG-neutral and mutation-free by contract, so results are
	// byte-identical with and without one. One profiler serves one
	// engine at a time: sweeps attach a fresh one per run (Options.Watch)
	// and pool them with prof.Aggregate. Nil keeps the engine's
	// zero-cost path.
	Profiler sim.Profiler
}

// Defaults returns the paper's Table 2 configuration for the given
// protocol and seed.
func Defaults(p Protocol, seed int64) RunConfig {
	return RunConfig{
		Protocol:  p,
		Nodes:     100,
		Radius:    0.2,
		Slots:     10000,
		Timeout:   100,
		Rate:      0.0005,
		Mix:       traffic.DefaultMix(),
		Threshold: 0.9,
		Capture:   capture.ZorziRao{},
		MAC:       mac.DefaultConfig(),
		Seed:      seed,
	}
}

// RunResult carries one run's aggregate outcomes.
type RunResult struct {
	Summary   metrics.Summary
	AvgDegree float64
	// Collector is retained so callers can re-summarise at other
	// thresholds (Figure 8).
	Collector *metrics.Collector
	Horizon   sim.Slot
	// Fault is the impairment injector the run used, nil when no channel
	// or crash impairment was active; callers export its degradation
	// counters with FeedRegistry.
	Fault *fault.Injector
}

// beaconEvery is the topology refresh period, in slots, of a mobile run
// (RunConfig.Speed > 0): each station's neighbour view is rebuilt from
// the current positions once per beacon period.
const beaconEvery = 50

// faultSeed derives the impairment seed from the run seed; a distinct
// mixing constant keeps it decoupled from both the topology and traffic
// stream (cfg.Seed itself) and the channel RNG (cfg.Seed ^ 0x1e37…).
func faultSeed(seed int64) int64 { return seed ^ 0x5851f42d4c957f2d }

// faultPieces resolves the configured impairments: the channel/crash
// injector for the engine (nil when inert) and the resolved fault seed.
func faultPieces(cfg *RunConfig) (*fault.Injector, int64, error) {
	fc := cfg.Fault
	if fc.Seed == 0 {
		fc.Seed = faultSeed(cfg.Seed)
	}
	if !fc.ChannelActive() {
		return nil, fc.Seed, nil
	}
	inj, err := fault.NewInjector(fc)
	return inj, fc.Seed, err
}

// faultFactory wraps the protocol factory with the location-noise axis:
// LAMM's believed coordinates get Gaussian error of LocNoise standard
// deviation, the stale-GPS stress on Theorems 1–4. Other protocols
// ignore location entirely and pass through.
func faultFactory(cfg *RunConfig, fseed int64) (func(node int, env *sim.Env) sim.MAC, error) {
	if cfg.Fault.LocNoise > 0 && cfg.Protocol == LAMM {
		return core.NewLAMMNoisy(cfg.MAC, cfg.Fault.LocNoise, fseed+1), nil
	}
	if cfg.Reference && cfg.Protocol == LAMM {
		return core.NewLAMMReference(cfg.MAC), nil
	}
	return Factory(cfg.Protocol, cfg.MAC)
}

// Validate reports the first run parameter that no simulation can be
// built from: fewer than one station, a radius that is not positive
// (NaN included), a per-slot generation rate outside [0,1], a negative
// (or NaN) speed, a negative horizon, a negative timeout, a reliability
// threshold outside [0,1], a degenerate traffic mix (traffic.Mix.Validate),
// or an entry on Lifecycles or SlotObservers that is not on Observers.
// Slots == 0 is valid: it builds the run without simulating a slot.
func (c RunConfig) Validate() error {
	for _, l := range []struct {
		name string
		obs  []sim.Observer
	}{{"Lifecycles", c.Lifecycles}, {"SlotObservers", c.SlotObservers}} {
		for _, o := range l.obs {
			if !slices.ContainsFunc(c.Observers, func(p sim.Observer) bool { return sameObserver(o, p) }) {
				return fmt.Errorf("experiments: %T on %s but not on Observers, which alone subscribes", o, l.name)
			}
		}
	}
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("experiments: Nodes %d, need at least 1", c.Nodes)
	case !(c.Radius > 0):
		return fmt.Errorf("experiments: Radius %v, need > 0", c.Radius)
	case !(c.Rate >= 0 && c.Rate <= 1):
		return fmt.Errorf("experiments: Rate %v outside [0,1]", c.Rate)
	case !(c.Speed >= 0):
		return fmt.Errorf("experiments: Speed %v, need >= 0", c.Speed)
	case c.Slots < 0:
		return fmt.Errorf("experiments: negative Slots %d", c.Slots)
	case c.Timeout < 0:
		return fmt.Errorf("experiments: negative Timeout %d", c.Timeout)
	case !(c.Threshold >= 0 && c.Threshold <= 1):
		return fmt.Errorf("experiments: Threshold %v outside [0,1]", c.Threshold)
	}
	if err := c.Mix.Validate(); err != nil {
		return fmt.Errorf("experiments: Mix: %w", err)
	}
	return nil
}

// sameObserver reports whether a and b are the same attachment, without
// comparing values whose dynamic type cannot be compared.
func sameObserver(a, b sim.Observer) bool {
	return reflect.ValueOf(a).Comparable() && a == b
}

// Run executes one simulation run to completion. An invalid run or fault
// configuration is reported as an error before anything is built.
func Run(cfg RunConfig) (RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return RunResult{}, err
	}
	inj, fseed, err := faultPieces(&cfg)
	if err != nil {
		return RunResult{}, err
	}
	factory, err := faultFactory(&cfg, fseed)
	if err != nil {
		return RunResult{}, err
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	var model *mobility.Waypoint
	var tp *topo.Topology
	if cfg.Speed > 0 {
		model = mobility.NewWaypoint(cfg.Nodes, cfg.Speed, cfg.Speed, 0, rng)
		tp = topo.FromPoints(model.Positions(), cfg.Radius)
	} else {
		tp = topo.Uniform(cfg.Nodes, cfg.Radius, rng)
	}
	// The seed stream, continued past the node placement, is the
	// traffic stream: nothing else draws from it, so every protocol at
	// this seed faces the same arrivals (see seedFor). A waypoint model
	// keeps drawing from it as nodes move, but its draws depend only on
	// the slot, so the interleaving is the same for every protocol too.
	gen := traffic.NewGenerator(tp, rng)
	gen.Rate = cfg.Rate
	gen.Mix = cfg.Mix
	gen.Timeout = cfg.Timeout
	var hook func(sim.Slot, *sim.Engine)
	if model != nil {
		driver := &mobility.Driver{
			Model: model, Radius: cfg.Radius, BeaconEvery: beaconEvery,
			OnRefresh: func(newTp *topo.Topology) { gen.Topo = newTp },
		}
		hook = driver.Hook()
	}
	col := metrics.NewCollector()
	var imp sim.Impairment
	if inj != nil {
		imp = inj
	}
	eng := sim.New(sim.Config{
		Topo:            tp,
		Capture:         cfg.Capture,
		Impairment:      imp,
		Seed:            cfg.Seed ^ 0x1e3779b97f4a7c15, // decouple channel RNG from topology
		Observers:       append([]sim.Observer{col}, cfg.Observers...),
		Reference:       cfg.Reference,
		ExposedTerminal: cfg.ExposedTerminal,
		Profiler:        cfg.Profiler,
		SlotHook:        hook,
	})
	eng.AttachMACs(factory)
	eng.Run(cfg.Slots, gen)
	horizon := sim.Slot(cfg.Slots)
	return RunResult{
		Summary:   col.Summarize(cfg.Threshold, metrics.GroupFilter(horizon)),
		AvgDegree: tp.AvgDegree(),
		Collector: col,
		Horizon:   horizon,
		Fault:     inj,
	}, nil
}

// PointStats aggregates the runs of one (sweep point, protocol) cell.
type PointStats struct {
	metrics.SummaryStats
	AvgDegree metrics.Sample
	// Collectors are kept only when the sweep requests them (Figure 8).
	Collectors []*metrics.Collector
	Horizon    sim.Slot
}

// ProgressMeter sinks the per-sweep-point progress lines of Sweep and
// supplies the clock behind their elapsed/ETA arithmetic. The injectable
// Clock keeps the sweep path structurally free of wall-clock calls — the
// determinism invariant relmaclint enforces — and makes the progress
// output testable with a fake clock; the time.Now default is only a
// function value here and is invoked solely on behalf of a caller that
// asked for progress reporting.
type ProgressMeter struct {
	// W receives one line per completed sweep point — progress fraction,
	// elapsed time and an ETA — so minutes-long cmd/experiments sweeps
	// are not silent. nil disables reporting.
	W io.Writer
	// Clock timestamps the elapsed/ETA math; nil means time.Now.
	Clock func() time.Time
	// Status, when non-nil, is updated after every completed run with
	// progress counts and elapsed/ETA — the live feed behind the metrics
	// endpoint's sweep gauges. nil disables the bookkeeping.
	Status *SweepStatus
}

// clock returns the meter's clock, defaulting to the wall clock. The
// default is taken as a function value, never called here, which is what
// keeps the determinism exception structural rather than suppressed.
func (pm ProgressMeter) clock() func() time.Time {
	if pm.Clock == nil {
		return time.Now
	}
	return pm.Clock
}

// Sweep runs o.Runs independent simulations for every (point,
// protocol) pair of o.Protocols, in parallel across the machine's
// cores. Each run starts from the paper defaults with o.Slots and
// o.Fault applied; mutate then configures it for sweep point i (a study
// that owns a fault axis overrides o.Fault there), and o.Watch, when
// set, attaches its surfaces last. Sweep reports to o.Progress as runs
// end. When keepCollectors is true the per-run collectors are retained
// for post-hoc re-thresholding. Each cell folds its runs in run order
// once the pool drains, so the aggregate floats do not depend on which
// worker finished first.
func Sweep(o Options, points int, mutate func(point int, cfg *RunConfig), keepCollectors bool) ([][]PointStats, error) {
	o = o.normal()
	protocols, runs, progress := o.Protocols, o.Runs, o.Progress

	// One entry per run, indexed (point, proto, run); workers write
	// disjoint entries, and wg.Wait orders those writes before the fold.
	type runOut struct {
		summary metrics.Summary
		degree  float64
		horizon sim.Slot
		col     *metrics.Collector
	}
	outs := make([]runOut, points*len(protocols)*runs)
	outAt := func(point, proto, run int) *runOut {
		return &outs[(point*len(protocols)+proto)*runs+run]
	}
	// Workers claim runs in index order: point, then protocol, then run.
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	clock := progress.clock()
	start := clock()
	perPoint := len(protocols) * runs
	total := points * perPoint
	done := 0
	pointDone := make([]int, points)
	pointsDone := 0
	if progress.Status != nil {
		progress.Status.begin(points, total)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(outs); i = int(next.Add(1)) - 1 {
				point, proto, run := i/perPoint, i/runs%len(protocols), i%runs
				cfg := Defaults(protocols[proto], seedFor(point, proto, run))
				cfg.Slots, cfg.Fault = o.Slots, o.Fault
				mutate(point, &cfg)
				if o.Watch != nil {
					o.Watch.Attach(&cfg)
				}
				res, err := Run(cfg)
				out := &outs[i]
				out.summary, out.degree, out.horizon = res.Summary, res.AvgDegree, res.Horizon
				if keepCollectors {
					out.col = res.Collector
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done++
				pointDone[point]++
				pointComplete := pointDone[point] == perPoint
				if pointComplete {
					pointsDone++
				}
				if progress.Status != nil || (progress.W != nil && pointComplete) {
					elapsed := clock().Sub(start)
					eta := elapsed * time.Duration(total-done) / time.Duration(done)
					if progress.Status != nil {
						progress.Status.update(done, pointsDone, elapsed, eta)
					}
					if progress.W != nil && pointComplete {
						fmt.Fprintf(progress.W,
							"sweep: point %d/%d done (%d/%d runs, %d%%), elapsed %s, eta %s\n",
							pointsDone, points, done, total, 100*done/total,
							elapsed.Round(time.Second), eta.Round(time.Second))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if progress.Status != nil {
		progress.Status.finish(clock().Sub(start))
	}
	results := make([][]PointStats, points)
	for p := range results {
		results[p] = make([]PointStats, len(protocols))
		for pr := range protocols {
			cell := &results[p][pr]
			for r := 0; r < runs; r++ {
				out := outAt(p, pr, r)
				cell.Add(out.summary)
				cell.AvgDegree.Add(out.degree)
				cell.Horizon = out.horizon
				if keepCollectors {
					cell.Collectors = append(cell.Collectors, out.col)
				}
			}
		}
	}
	return results, firstErr
}

// seedFor derives a deterministic seed for a (sweep point, protocol,
// run) cell. The proto index is deliberately NOT mixed in: the paper's
// figures compare protocols on the same axes, which is a paired design,
// so a curve separation should measure the protocol, not the luck of
// the draw. Every protocol at a given (point, run) shares what this
// seed alone determines: the topology, the traffic arrivals (kind,
// source, destinations, slot — the generator draws from the seed stream
// after node placement and from nothing else) and the derived fault
// schedule. MAC backoff and capture draws are not shared: they come
// from the engine PRNG in the order the protocol's own transmissions
// consume it, and each protocol transmits a different frame sequence,
// so no stream layout could align them. The parameter
// is kept in the signature to document at each call site that the
// pairing is a choice, not an omission; TestSeedForPairsProtocols and
// TestPairedArrivals pin the behaviour.
func seedFor(point, proto, run int) int64 {
	return int64(point)*1_000_003 + int64(run)*7919 + 12345
}

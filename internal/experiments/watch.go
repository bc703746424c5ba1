package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"relmac/internal/analysis"
	"relmac/internal/obs"
	"relmac/internal/prof"
	"relmac/internal/report"
	"relmac/internal/sim"
)

// Watch is the one attach point for the observability surfaces: it
// names which surfaces every run carries, builds a fresh instance of
// each per run, appends it once to RunConfig.Observers (the phase timer
// goes in Profiler), registers it with the metrics server and pools it
// per protocol. Each surface declares the event kinds it reads.
//
// Attach may run on several goroutines at once, so Options.Watch = w
// instruments every run of a sweep. Run adds the post-run step a single run
// needs. The pooled views (PhaseTable, LedgerSnapshots, DriftSummaries,
// Audits, Flights) are read once the runs have ended; they list
// protocols in ExtendedProtocols order and runs in seed order, never in
// attach order.
type Watch struct {
	// Stats feeds per-protocol event counters and histograms (obs.Stats)
	// into Registry.
	Stats bool
	// Ledger attaches the airtime ledger; its counters accumulate in
	// Registry under the protocol's prefix across runs.
	Ledger bool
	// Drift attaches the analytic drift monitor; accumulators merge per
	// protocol.
	Drift bool
	// Flight attaches a flight recorder, pooled per protocol (Flights);
	// Run writes it to FlightFile.
	Flight bool
	// FlightStats attaches a flight recorder whose stage histograms feed
	// Registry.
	FlightStats bool
	// Audit attaches the conformance auditor to runs of every protocol
	// that has a model; outcomes sum per protocol.
	Audit bool
	// Phases attaches a fresh phase timer; timers pool per protocol.
	Phases bool
	// TraceFile, when set, attaches an event tracer. Run writes each
	// run's trace there, and its span trees to FlightFile when that is
	// set: JSONL for a *.jsonl name, Chrome trace-event JSON otherwise,
	// standard output for "-".
	TraceFile, FlightFile string
	// Registry receives the counters of Stats, Ledger and FlightStats
	// (it must be set when any of them is) and the fault counters Run
	// feeds.
	Registry *obs.Registry
	// Server, when set, serves every attached surface: the /snapshot
	// sections ledgers, tracers, flights, audits and drift, each
	// registered on the first attach of its surface, and the per-protocol
	// phase series.
	Server *obs.MetricsServer
	// Log receives one-line notes (a skipped audit, a written file); nil
	// discards them.
	Log io.Writer

	mu     sync.Mutex
	pools  map[Protocol]*pool
	served map[string]bool
}

// pool is one protocol's share of a Watch.
type pool struct {
	// live maps each /snapshot section to the protocol's entry in it.
	live map[string]func() any
	runs []*watched // in seed order
}

// all is the pool's runs; a protocol with no pool has none.
func (pl *pool) all() []*watched {
	if pl == nil {
		return nil
	}
	return pl.runs
}

// watched is what one run contributes to its protocol's pool.
type watched struct {
	seed   int64
	drift  *obs.DriftMonitor
	flight *obs.Flight // kept only with Watch.Flight
	audit  *obs.Auditor
	timer  *prof.PhaseTimer
	// done marks a run Run has seen end; only those are read live, as a
	// running engine is still writing the rest.
	done bool
}

// Attach gives cfg a fresh instance of every surface the Watch names.
func (w *Watch) Attach(cfg *RunConfig) { w.attach(cfg) }

// attach is Attach, returning the run's pool entry and the surfaces Run
// writes out.
func (w *Watch) attach(cfg *RunConfig) (*watched, *obs.Tracer, *obs.Flight) {
	p, name := cfg.Protocol, string(cfg.Protocol)
	run := &watched{seed: cfg.Seed}
	var led *obs.Ledger
	var tr *obs.Tracer
	var fl *obs.Flight
	if w.Stats {
		cfg.Observers = append(cfg.Observers, obs.NewStats(w.Registry, name))
	}
	if w.Ledger {
		led = obs.NewLedger(w.Registry, name)
		cfg.Observers = append(cfg.Observers, led)
	}
	if w.Drift {
		run.drift = obs.NewDriftMonitor(analysis.RoundModelFor(name))
		cfg.Observers = append(cfg.Observers, run.drift)
	}
	if w.TraceFile != "" {
		tr = obs.NewTracer(0)
		cfg.Observers = append(cfg.Observers, tr)
	}
	if w.Flight || w.FlightStats {
		// The registry (and a prefix) only when the histograms were asked
		// for; a span recorder alone stays registry-free.
		var reg *obs.Registry
		prefix := ""
		if w.FlightStats {
			reg, prefix = w.Registry, name
		}
		fl = obs.NewFlight(reg, prefix, 0)
		cfg.Observers = append(cfg.Observers, fl)
		if w.Flight {
			run.flight = fl
		}
	}
	ap, auditable := obs.AuditProtocolFor(name)
	if w.Audit && auditable {
		run.audit = obs.NewAuditor(ap, cfg.MAC.RetryLimit)
		cfg.Observers = append(cfg.Observers, run.audit)
	}
	if w.Phases {
		run.timer = prof.New()
		cfg.Profiler = run.timer
	}

	w.mu.Lock()
	if w.pools == nil {
		w.pools = make(map[Protocol]*pool)
		w.served = make(map[string]bool)
	}
	pl := w.pools[p]
	first := pl == nil
	if first {
		pl = &pool{live: make(map[string]func() any)}
		w.pools[p] = pl
		if w.Server != nil && w.Phases {
			w.Server.AddProfile(name, func() prof.Report { return prof.Aggregate(w.timers(p)) })
		}
	}
	at := sort.Search(len(pl.runs), func(i int) bool { return pl.runs[i].seed > run.seed })
	pl.runs = slices.Insert(pl.runs, at, run)
	if led != nil {
		// The latest ledger's snapshot covers every run: the counters
		// accumulate in the registry.
		w.show(pl, "ledgers", func() any { return led.Snapshot() })
	}
	if tr != nil {
		w.show(pl, "tracers", func() any { return tr.Stats() })
	}
	if fl != nil {
		w.show(pl, "flights", func() any { return fl.Stats() })
	}
	if aud := run.audit; aud != nil {
		w.show(pl, "audits", func() any { return aud.Stats() })
	}
	if w.Drift {
		w.show(pl, "drift", func() any {
			if acc := w.merged(p, true); acc != nil {
				return acc.Summary()
			}
			return nil
		})
	}
	w.mu.Unlock()
	if first && w.Audit && !auditable {
		w.logf("audit: no conformance model for %s, skipping\n", name)
	}
	return run, tr, fl
}

// show makes view the protocol's entry in the /snapshot section key,
// registering the section on its first use: a map from protocol to a
// view of its runs, nil views left out. Callers hold w.mu, as does
// every view call.
func (w *Watch) show(pl *pool, key string, view func() any) {
	pl.live[key] = view
	if w.Server == nil || w.served[key] {
		return
	}
	w.served[key] = true
	w.Server.Extra(key, func() any {
		w.mu.Lock()
		defer w.mu.Unlock()
		out := make(map[string]any)
		for p, pl := range w.pools {
			if view := pl.live[key]; view != nil {
				if v := view(); v != nil {
					out[string(p)] = v
				}
			}
		}
		return out
	})
}

// Run attaches the Watch to cfg and runs it, then does what only a
// caller that sees the run end can: it marks the run's surfaces ready
// for the live drift section, feeds the fault injector's counters into
// Registry, and writes TraceFile and FlightFile.
func (w *Watch) Run(cfg RunConfig) (RunResult, error) {
	run, tr, fl := w.attach(&cfg)
	res, err := Run(cfg)
	if err != nil {
		return res, err
	}
	w.mu.Lock()
	run.done = true
	w.mu.Unlock()
	if w.Registry != nil && res.Fault != nil {
		res.Fault.FeedRegistry(w.Registry, string(cfg.Protocol)+".fault")
	}
	if tr != nil {
		if err := WriteFile(w.TraceFile, byExt(w.TraceFile, tr.WriteJSONL, tr.WriteChromeTrace)); err != nil {
			return res, err
		}
		w.logf("trace: %d events -> %s (%d dropped)\n", tr.Len(), w.TraceFile, tr.Dropped())
	}
	if fl != nil && w.FlightFile != "" {
		if err := WriteFile(w.FlightFile, byExt(w.FlightFile, fl.WriteSpansJSONL, fl.WriteChromeTrace)); err != nil {
			return res, err
		}
		st := fl.Stats()
		w.logf("flight: %d messages -> %s (%d complete, %d aborted, %d in flight)\n",
			st.Tracked, w.FlightFile, st.Completed, st.Aborted, st.InFlight)
	}
	return res, nil
}

// byExt picks the JSONL writer for a *.jsonl path, the Chrome one
// otherwise.
func byExt(path string, jsonl, chrome func(io.Writer) error) func(io.Writer) error {
	if strings.HasSuffix(path, ".jsonl") {
		return jsonl
	}
	return chrome
}

// WriteFile hands write the named file, or standard output when path is
// "-".
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *Watch) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format, args...)
	}
}

// timers is the protocol's phase timers in seed order.
func (w *Watch) timers(p Protocol) []*prof.PhaseTimer {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []*prof.PhaseTimer
	for _, r := range w.pools[p].all() {
		if r.timer != nil {
			out = append(out, r.timer)
		}
	}
	return out
}

// PhaseTable renders the engine phase breakdown: one row per protocol,
// its runs' timers pooled with prof.Aggregate, one column per phase
// holding that phase's fraction of the pooled wall time.
func (w *Watch) PhaseTable() *report.Table {
	cols := []string{"protocol", "runs", "wall ms"}
	for i := 0; i < sim.NumPhases; i++ {
		cols = append(cols, sim.Phase(i).String())
	}
	tb := report.NewTable("engine phases: fraction of wall time per phase (all runs pooled)", cols...)
	for _, p := range ExtendedProtocols {
		timers := w.timers(p)
		if len(timers) == 0 {
			continue
		}
		r := prof.Aggregate(timers)
		row := []any{string(p), r.Runs, float64(r.WallNs) / 1e6}
		for _, s := range r.Phases {
			row = append(row, s.Frac)
		}
		tb.AddRow(row...)
	}
	tb.Note = "conservation holds by construction: phase fractions sum to 1"
	return tb
}

// LedgerSnapshots is each protocol's airtime breakdown over all its
// runs.
func (w *Watch) LedgerSnapshots() map[string]obs.LedgerSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]obs.LedgerSnapshot)
	for p, pl := range w.pools {
		if view := pl.live["ledgers"]; view != nil {
			out[string(p)] = view().(obs.LedgerSnapshot)
		}
	}
	return out
}

// DriftSummaries is each protocol's drift summary, its runs'
// accumulators merged.
func (w *Watch) DriftSummaries() map[string]analysis.DriftSummary {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]analysis.DriftSummary)
	for p := range w.pools {
		if acc := w.merged(p, false); acc != nil {
			out[string(p)] = acc.Summary()
		}
	}
	return out
}

// merged is the protocol's drift accumulators merged into a fresh one,
// nil when there are none; live reads only the runs Run has seen end.
// Callers hold w.mu.
func (w *Watch) merged(p Protocol, live bool) *analysis.DriftAccum {
	var acc *analysis.DriftAccum
	for _, r := range w.pools[p].all() {
		if r.drift == nil || (live && !r.done) {
			continue
		}
		if acc == nil {
			acc = analysis.NewDriftAccum(analysis.RoundModelFor(string(p)))
		}
		acc.Merge(r.drift.Accum())
	}
	return acc
}

// Audits is each audited protocol's outcome summed over its runs, the
// findings in seed order.
func (w *Watch) Audits() map[string]*obs.AuditReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]*obs.AuditReport)
	for _, p := range ExtendedProtocols {
		for _, r := range w.pools[p].all() {
			if r.audit == nil {
				continue
			}
			rep := r.audit.Report()
			if sum := out[string(p)]; sum != nil {
				sum.Audited += rep.Audited
				sum.Violations += rep.Violations
				sum.Findings = append(sum.Findings, rep.Findings...)
			} else {
				out[string(p)] = &rep
			}
		}
	}
	return out
}

// Flights is the protocol's flight recorders in seed order.
func (w *Watch) Flights(p Protocol) []*obs.Flight {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []*obs.Flight
	for _, r := range w.pools[p].all() {
		if r.flight != nil {
			out = append(out, r.flight)
		}
	}
	return out
}

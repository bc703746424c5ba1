package main

import (
	"fmt"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// DefaultSeed is the workload seed used while developing a change;
// HeldOutSeed is reserved for confirming a claim on inputs the change was
// not tuned on.
const (
	DefaultSeed int64 = 1
	HeldOutSeed int64 = 20020818
)

// Workload sizes. A timed pass of each lasts about 1–1.5 s on a 2-core
// host, so one run of the benchmark fits twenty or so passes. Several
// seeds per point keep the work per pass close across workload seeds.
const (
	fig6aReps    = 2
	sparseRate   = 0.00025 // the lowest Figure 6(b) point
	sparseSlots  = 100_000
	sparseReps   = 4
	observedReps = 4
	// faultHorizon caps the slots of fault-overhead passes on workloads
	// without faults of their own: crash schedules keep the event clock
	// from skipping, so a faulted sparse-event pass would take ~15× as
	// long as a clean one.
	faultHorizon = 10_000
)

// impairment is the observed-impaired fault mix: i.i.d. PER, a bursty
// Gilbert–Elliott channel (~2% bad, mean burst 4 slots) and node
// crash/recover schedules. Other workloads borrow it for the fault
// overhead measurement.
var impairment = fault.Config{
	PER:   0.02,
	GE:    fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
	Crash: fault.Crash{MTTF: 1500, MTTR: 150},
}

// surfaces is a set of observation surfaces attached to every run of a
// pass, each fresh per run.
type surfaces uint8

const (
	withLedger surfaces = 1 << iota
	withFlight
	withAuditor
	allSurfaces = withLedger | withFlight | withAuditor
)

// workload is one fixed run list: configuration points (protocol unset)
// crossed with protocols, plus the surfaces and faults its runs carry.
type workload struct {
	name      string
	points    []experiments.RunConfig
	protocols []experiments.Protocol
	surf      surfaces
	faults    bool
}

var workloadNames = []string{"fig6a-density", "sparse-event", "observed-impaired"}

// newWorkload generates the named workload's run list from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "fig6a-density":
		w := &workload{name: name, protocols: experiments.PaperProtocols}
		for r := 0; r < fig6aReps; r++ {
			for p, n := range experiments.DensityPoints {
				cfg := experiments.Defaults("", runSeed(seed, p, r))
				cfg.Nodes = n
				w.points = append(w.points, cfg)
			}
		}
		return w, nil
	case "sparse-event":
		w := &workload{name: name, protocols: experiments.AllProtocols}
		for r := 0; r < sparseReps; r++ {
			cfg := experiments.Defaults("", runSeed(seed, 0, r))
			cfg.Rate = sparseRate
			cfg.Slots = sparseSlots
			cfg.EventTraffic = true
			w.points = append(w.points, cfg)
		}
		return w, nil
	case "observed-impaired":
		w := &workload{name: name, protocols: experiments.AllProtocols, surf: allSurfaces, faults: true}
		for r := 0; r < observedReps; r++ {
			w.points = append(w.points, experiments.Defaults("", runSeed(seed, 0, r)))
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runSeed derives one point's run seed from the workload seed with the
// splitmix64 finaliser. Protocols at a point share it, the paired design
// of experiments.Sweep.
func runSeed(seed int64, point, rep int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(1+point<<16+rep)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

// passKind selects how a pass derives its runs from the workload.
type passKind struct {
	surf      surfaces
	faults    bool
	allProtos bool // every protocol of experiments.AllProtocols at each point
	profiled  bool // a prof.PhaseTimer on every run
	setup     bool // Slots: 0, building each run without simulating it
	slots     int  // when positive, overrides each run's Slots
}

// own is the workload's own pass: the runs users would time.
func (w *workload) own() passKind { return passKind{surf: w.surf, faults: w.faults} }

// runs materialises the pass's configurations, without surfaces.
func (w *workload) runs(k passKind) []experiments.RunConfig {
	protos := w.protocols
	if k.allProtos {
		protos = experiments.AllProtocols
	}
	var out []experiments.RunConfig
	for _, pt := range w.points {
		for _, p := range protos {
			cfg := pt
			cfg.Protocol = p
			if k.faults {
				cfg.Fault = impairment
			}
			if k.slots > 0 {
				cfg.Slots = k.slots
			}
			if k.setup {
				cfg.Slots = 0
			}
			out = append(out, cfg)
		}
	}
	return out
}

// probes are the surfaces attached to one run, read back after it.
type probes struct {
	ledger  *obs.Ledger
	auditor *obs.Auditor
}

// attach gives cfg fresh instances of the surfaces in s.
func attach(cfg *experiments.RunConfig, s surfaces) (probes, error) {
	var pr probes
	if s&withLedger != 0 {
		pr.ledger = obs.NewLedger(obs.NewRegistry(), "bench")
		cfg.Observers = append(cfg.Observers, pr.ledger)
		cfg.SlotObservers = append(cfg.SlotObservers, pr.ledger)
	}
	if s&withFlight != 0 {
		fl := obs.NewFlight(nil, "", 0)
		cfg.Observers = append(cfg.Observers, fl)
		cfg.Lifecycles = append(cfg.Lifecycles, fl)
	}
	if s&withAuditor != 0 {
		ap, ok := obs.AuditProtocolFor(string(cfg.Protocol))
		if !ok {
			return pr, fmt.Errorf("no audit model for %s", cfg.Protocol)
		}
		pr.auditor = obs.NewAuditor(ap, cfg.MAC.RetryLimit)
		cfg.Observers = append(cfg.Observers, pr.auditor)
		cfg.Lifecycles = append(cfg.Lifecycles, pr.auditor)
	}
	return pr, nil
}

// protoKey is a protocol's metric-name component: "802.11" → "80211".
func protoKey(p experiments.Protocol) string {
	b := make([]byte, 0, len(p))
	for _, c := range []byte(p) {
		switch {
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, c)
		}
	}
	return string(b)
}

// phaseNames are the engine phases reported per slot. seam-merge is left
// out: it is charged only by the parallel tile resolver (sim/tilepar),
// which no user path measured here runs.
func phaseNames() []string {
	var out []string
	for i := 0; i < sim.NumPhases; i++ {
		if name := sim.Phase(i).String(); name != "seam-merge" {
			out = append(out, name)
		}
	}
	return out
}

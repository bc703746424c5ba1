package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"relmac/internal/fault"
	"relmac/internal/metrics"
	"relmac/internal/mobility"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// These tests pin the single run path: every simulation study builds its
// engines in Run and fans out through Sweep, so the Watch, the progress
// meter and every other Options field reach all of them.

// TestStudiesInstrumentEveryRun runs every study of the catalogue with
// a Watch and a progress meter in Options. Each sweep study must attach
// the Watch to exactly points × protocols × runs runs and print one
// progress line per point; the closed-form and scripted studies attach
// nothing. Every study returns one output per file.
func TestStudiesInstrumentEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	paper, faulty := len(PaperProtocols), len(FaultProtocols)
	shapes := map[string]struct{ points, protos int }{
		"table1": {}, "fig2": {}, "fig5": {},
		"density":    {len(DensityPoints), paper},
		"rate":       {len(RatePoints), paper},
		"fig7":       {len(TimeoutPoints), paper},
		"mobility":   {len(MobilitySpeeds), paper},
		"overhead":   {1, paper},
		"fault":      {len(FaultPERs), faulty},
		"faultburst": {3, faulty},
		"drift":      {1, paper},
		"gpserr":     {len(GPSSigmas), 1},
		"fig8":       {1, paper},
	}
	for _, s := range Studies {
		shape, ok := shapes[s.Name]
		if !ok {
			t.Errorf("%s: no expected shape in this test", s.Name)
			continue
		}
		if s.Sweep != (shape.points > 0) {
			t.Errorf("%s: Sweep is %v, want %v", s.Name, s.Sweep, !s.Sweep)
		}
		w := &Watch{}
		var lines bytes.Buffer
		outs, err := s.Run(Options{Runs: 1, Slots: 200, Watch: w, Progress: ProgressMeter{W: &lines}})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(outs) != len(s.Files) {
			t.Errorf("%s: %d outputs for %d files", s.Name, len(outs), len(s.Files))
		}
		for i, out := range outs {
			if out.Table == nil && out.Text == "" {
				t.Errorf("%s: output %d is empty", s.Name, i)
			}
		}
		attached := 0
		for _, pl := range w.pools {
			attached += len(pl.runs)
		}
		if want := shape.points * shape.protos; attached != want {
			t.Errorf("%s: Watch attached to %d runs, want %d", s.Name, attached, want)
		}
		if got := strings.Count(lines.String(), "sweep: point "); got != shape.points {
			t.Errorf("%s: %d progress lines, want %d", s.Name, got, shape.points)
		}
	}
}

// TestLocationErrorHonoursFault: the sweep owns only the LocNoise axis,
// so a channel impairment in Options reaches every run — with every
// frame erased, fewer receivers are reached at every sigma.
func TestLocationErrorHonoursFault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Options{Runs: 2, Slots: 800}
	clean := runStudy(t, "gpserr", o)[0]
	o.Fault = fault.Config{PER: 1}
	lossy := runStudy(t, "gpserr", o)[0]
	for i := range clean.Rows {
		c, l := parseF(t, clean.Rows[i][3]), parseF(t, lossy.Rows[i][3])
		if !(l < c) {
			t.Errorf("sigma %s: receivers reached %v with PER 1, %v without; want fewer",
				clean.Rows[i][0], l, c)
		}
	}
}

// TestSweepFoldsInRunOrder: a Sweep cell equals a sequential fold of the
// same Run results in run order, bit for bit, whatever order the
// workers finished in; kept collectors come out in run order too.
func TestSweepFoldsInRunOrder(t *testing.T) {
	protos := []Protocol{BMW, LAMM}
	const points, runs = 2, 4
	mutate := func(p int, cfg *RunConfig) {
		cfg.Nodes = 30 + 20*p
		cfg.Slots = 400
	}
	got, err := Sweep(Options{Runs: runs, Protocols: protos}, points, mutate, true)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < points; p++ {
		for pr, proto := range protos {
			var want PointStats
			var summaries []metrics.Summary
			for r := 0; r < runs; r++ {
				cfg := Defaults(proto, seedFor(p, pr, r))
				mutate(p, &cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want.Add(res.Summary)
				want.AvgDegree.Add(res.AvgDegree)
				want.Horizon = res.Horizon
				summaries = append(summaries, res.Summary)
			}
			cell := got[p][pr]
			if !reflect.DeepEqual(cell.SummaryStats, want.SummaryStats) ||
				cell.AvgDegree != want.AvgDegree || cell.Horizon != want.Horizon {
				t.Errorf("point %d %s: sweep cell %+v, run-order fold %+v", p, proto, cell, want)
			}
			for r, col := range cell.Collectors {
				if s := col.Summarize(0.9, metrics.GroupFilter(cell.Horizon)); s != summaries[r] {
					t.Errorf("point %d %s: collector %d is not run %d's", p, proto, r, r)
				}
			}
		}
	}
}

// parentRunMobile is the mobility run as it was built before RunConfig
// grew a Speed field: its own engine, a random-waypoint model drawing
// from the seed stream, and a beacon driver refreshing the topology
// every beaconEvery slots. It is kept only to pin that Run with
// Speed > 0 reproduces it exactly.
func parentRunMobile(t *testing.T, cfg RunConfig, speed float64, beaconEvery int) metrics.Summary {
	t.Helper()
	inj, fseed, err := faultPieces(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := faultFactory(&cfg, fseed)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	model := mobility.NewWaypoint(cfg.Nodes, speed, speed, 0, rng)
	tp := topo.FromPoints(model.Positions(), cfg.Radius)
	gen := traffic.NewGenerator(tp, rng)
	gen.Rate = cfg.Rate
	gen.Mix = cfg.Mix
	gen.Timeout = cfg.Timeout
	driver := &mobility.Driver{
		Model: model, Radius: cfg.Radius, BeaconEvery: beaconEvery,
		OnRefresh: func(newTp *topo.Topology) { gen.Topo = newTp },
	}
	col := metrics.NewCollector()
	var imp sim.Impairment
	if inj != nil {
		imp = inj
	}
	eng := sim.New(sim.Config{
		Topo: tp, Capture: cfg.Capture,
		Impairment: imp,
		Seed:       cfg.Seed ^ 0x1e3779b97f4a7c15, Observers: []sim.Observer{col},
		SlotHook: driver.Hook(),
	})
	eng.AttachMACs(factory)
	eng.Run(cfg.Slots, gen)
	return col.Summarize(cfg.Threshold, metrics.GroupFilter(sim.Slot(cfg.Slots)))
}

// TestMobileRunMatchesParentPath: Run with Speed > 0 gives the same
// Summary as the dedicated mobility path it replaced, at several seeds
// and speeds, with and without an impairment.
func TestMobileRunMatchesParentPath(t *testing.T) {
	for _, speed := range MobilitySpeeds[1:] {
		for _, p := range []Protocol{BMW, LAMM} {
			for run := 0; run < 2; run++ {
				cfg := Defaults(p, seedFor(1, 0, run))
				cfg.Slots = 1200
				if run == 1 {
					cfg.Fault = fault.Config{PER: 0.1}
				}
				want := parentRunMobile(t, cfg, speed, beaconEvery)
				cfg.Speed = speed
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Summary != want {
					t.Errorf("speed %g %s run %d: Run %+v, mobility path %+v",
						speed, p, run, res.Summary, want)
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	// A moving run really differs from the static one at the same seed.
	cfg := Defaults(LAMM, seedFor(1, 0, 0))
	cfg.Slots = 1200
	static, _ := Run(cfg)
	cfg.Speed = MobilitySpeeds[len(MobilitySpeeds)-1]
	moving, _ := Run(cfg)
	if static.Summary == moving.Summary {
		t.Error("Speed > 0 left the run unchanged")
	}
}

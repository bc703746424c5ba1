package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"relmac/internal/fault"
	"relmac/internal/metrics"
	"relmac/internal/mobility"
	"relmac/internal/report"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// These tests pin the single run path: every simulation study builds its
// engines in Run and fans out through Sweep, so the Instrument hook, the
// progress meter and every Options field reach all of them.

// TestStudiesInstrumentEveryRun counts Instrument calls and progress
// lines per study: each must see exactly points × protocols × runs
// calls and one progress line per point. Fig7 is the control, a study
// that always ran through Sweep.
func TestStudiesInstrumentEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	savedI, savedP := Instrument, Progress
	defer func() { Instrument, Progress = savedI, savedP }()
	var calls atomic.Int64
	Instrument = func(*RunConfig) { calls.Add(1) }
	var lines bytes.Buffer
	Progress = ProgressMeter{W: &lines}

	protos := []Protocol{BMMM, LAMM}
	o := Options{Runs: 2, Slots: 200, Protocols: protos}
	for _, tc := range []struct {
		name   string
		study  func(Options) (*report.Table, error)
		points int
		protos int
	}{
		{"Fig7", Fig7, len(TimeoutPoints), len(protos)},
		{"Mobility", Mobility, len(MobilitySpeeds), len(protos)},
		{"LocationError", LocationError, len(GPSSigmas), 1},
		{"Overhead", Overhead, 1, len(protos)},
	} {
		calls.Store(0)
		lines.Reset()
		if _, err := tc.study(o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := int64(tc.points * tc.protos * o.Runs); calls.Load() != want {
			t.Errorf("%s: Instrument ran %d times, want %d", tc.name, calls.Load(), want)
		}
		if got := strings.Count(lines.String(), "sweep: point "); got != tc.points {
			t.Errorf("%s: %d progress lines, want %d", tc.name, got, tc.points)
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
	clean, err := LocationError(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Fault = fault.Config{PER: 1}
	lossy, err := LocationError(o)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := Sweep(points, protos, runs, mutate, true)
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

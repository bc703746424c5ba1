package dcf_test

import (
	mrand "math/rand"
	"testing"

	"relmac/internal/baseline/dcf"
	"relmac/internal/experiments"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// TestDataLogBoundedOverLongRuns is the soak test of the receiver data
// log behind Station.HasData, at the paper's Table 2 defaults. No
// station's log ever holds more entries than it has neighbors (the
// senders it can hear), and the total over all stations less than
// doubles from slot 10⁴ to 2·10⁵: what growth remains is first contact
// with a sender. A log that kept every message ID received grows about
// as fast as the run and breaks both bounds.
func TestDataLogBoundedOverLongRuns(t *testing.T) {
	const short, long = 10_000, 200_000
	for _, p := range []experiments.Protocol{
		experiments.BSMA, experiments.BMW, experiments.BMMM, experiments.LAMM, experiments.KKLeader,
	} {
		cfg := experiments.Defaults(p, 1)
		factory, err := experiments.Factory(p, cfg.MAC)
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(cfg.Seed))
		tp := topo.Uniform(cfg.Nodes, cfg.Radius, rng)
		gen := traffic.NewGenerator(tp, rng)
		gen.Rate, gen.Mix, gen.Timeout = cfg.Rate, cfg.Mix, cfg.Timeout
		eng := sim.New(sim.Config{Topo: tp, Capture: cfg.Capture, Seed: cfg.Seed})
		stations := make([]*dcf.Station, cfg.Nodes)
		eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
			m := factory(node, env)
			stations[node] = m.(*dcf.Station)
			return m
		})

		total := func(horizon int) int {
			n := 0
			for i, st := range stations {
				size := st.DataLogLen()
				if deg := len(tp.Neighbors(i)); size > deg {
					t.Errorf("%s: station %d logs %d senders at slot %d, but has %d neighbors",
						p, i, size, horizon, deg)
				}
				n += size
			}
			return n
		}
		eng.Run(short, gen)
		early := total(short)
		eng.Run(long-short, gen)
		late := total(long)
		t.Logf("%s: %d log entries over all stations at slot %d, %d at slot %d", p, early, short, late, long)
		if late >= 2*early {
			t.Errorf("%s: total log size grew from %d entries at slot %d to %d at slot %d",
				p, early, short, late, long)
		}
	}
}

package traffic

import (
	"math"
	"math/rand"
	"testing"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

func TestMixValidate(t *testing.T) {
	if err := DefaultMix().Validate(); err != nil {
		t.Errorf("default mix invalid: %v", err)
	}
	if (Mix{Unicast: -1, Multicast: 1, Broadcast: 1}).Validate() == nil {
		t.Error("negative component must fail")
	}
	if (Mix{}).Validate() == nil {
		t.Error("zero mix must fail")
	}
}

func TestMixPickFrequencies(t *testing.T) {
	m := DefaultMix()
	rng := rand.New(rand.NewSource(1))
	counts := map[sim.Kind]int{}
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[m.pick(rng)]++
	}
	got := func(k sim.Kind) float64 { return float64(counts[k]) / trials }
	if math.Abs(got(sim.Unicast)-0.2) > 0.01 ||
		math.Abs(got(sim.Multicast)-0.4) > 0.01 ||
		math.Abs(got(sim.Broadcast)-0.4) > 0.01 {
		t.Errorf("mix frequencies off: %v", counts)
	}
}

func TestGeneratorRequestShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := topo.Uniform(100, 0.2, rng)
	g := NewGenerator(tp, rng)
	g.Rate = 1 // every node, every slot
	reqs := g.Arrivals(7)
	if len(reqs) == 0 {
		t.Fatal("no arrivals at rate 1")
	}
	for _, r := range reqs {
		if r.ID != 0 {
			t.Fatalf("generator set ID %d; the engine numbers requests", r.ID)
		}
		if r.Arrival != 7 || r.Deadline != 107 {
			t.Fatalf("arrival/deadline wrong: %+v", r)
		}
		nb := tp.Neighbors(r.Src)
		switch r.Kind {
		case sim.Unicast:
			if len(r.Dests) != 1 {
				t.Fatalf("unicast with %d dests", len(r.Dests))
			}
		case sim.Broadcast:
			if len(r.Dests) != len(nb) {
				t.Fatalf("broadcast dests %d != degree %d", len(r.Dests), len(nb))
			}
		case sim.Multicast:
			if len(r.Dests) < 1 || len(r.Dests) > len(nb) {
				t.Fatalf("multicast dests %d out of [1,%d]", len(r.Dests), len(nb))
			}
		}
		// All destinations must be distinct neighbors of the source.
		isNb := map[int]bool{}
		for _, j := range nb {
			isNb[j] = true
		}
		dseen := map[int]bool{}
		for _, d := range r.Dests {
			if !isNb[d] {
				t.Fatalf("dest %d is not a neighbor of %d", d, r.Src)
			}
			if dseen[d] {
				t.Fatal("duplicate destination")
			}
			dseen[d] = true
		}
	}
}

func TestGeneratorSkipsIsolatedNodes(t *testing.T) {
	tp := topo.Grid(2, 1, 0.1) // two nodes 1.0 apart: both isolated
	rng := rand.New(rand.NewSource(4))
	g := NewGenerator(tp, rng)
	g.Rate = 1
	if got := g.Arrivals(0); len(got) != 0 {
		t.Errorf("isolated nodes generated requests: %v", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := []int{1, 2, 3, 4, 5}
	got := sampleWithoutReplacement(src, 3, rng)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("duplicate in sample")
		}
		seen[v] = true
	}
	if got := sampleWithoutReplacement(src, 99, rng); len(got) != 5 {
		t.Errorf("oversized k must clamp: %d", len(got))
	}
	// Source must be untouched.
	for i, v := range []int{1, 2, 3, 4, 5} {
		if src[i] != v {
			t.Fatal("source slice mutated")
		}
	}
}

func TestScriptSource(t *testing.T) {
	s := NewScript()
	r1 := s.At(5, &sim.Request{Src: 0, Dests: []int{1}})
	s.At(5, &sim.Request{Src: 1, Dests: []int{0}})
	if len(s.Arrivals(4)) != 0 {
		t.Error("early arrivals")
	}
	got := s.Arrivals(5)
	if len(got) != 2 || got[0] != r1 {
		t.Errorf("Arrivals(5) = %v", got)
	}
	if r1.Arrival != 5 {
		t.Error("At must stamp the arrival slot")
	}
	if r1.Deadline <= 5 {
		t.Error("default deadline must be far in the future")
	}
	withDeadline := s.At(9, &sim.Request{Deadline: 42})
	if withDeadline.Deadline != 42 {
		t.Error("explicit deadline must be preserved")
	}
}

// TestGeneratorRate: the geometric-gap sampler must realise the
// Table 2 arrival law — every (slot, node) lattice point fires
// independently with probability Rate.
func TestGeneratorRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tp := topo.Uniform(100, 0.2, rng)
	g := NewGenerator(tp, rng)
	g.Rate = 0.01
	total := 0
	const slots = 5000
	for s := sim.Slot(0); s < slots; s++ {
		total += len(g.Arrivals(s))
	}
	// Expectation: 100 nodes × 0.01 × 5000 = 5000 arrivals (minus the few
	// isolated-node skips). Allow 10%.
	if total < 4300 || total > 5500 {
		t.Errorf("arrivals = %d, want ≈5000", total)
	}
}

// TestGeneratorTinyRateNeverFires: a rate so small that the first gap
// overflows the slot counter must park the cursor beyond every run,
// not wrap it negative and spin.
func TestGeneratorTinyRateNeverFires(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp := topo.Uniform(50, 0.3, rng)
	g := NewGenerator(tp, rng)
	g.Rate = 1e-30
	for s := sim.Slot(0); s < 100; s++ {
		if got := g.Arrivals(s); len(got) != 0 {
			t.Fatalf("arrivals at slot %d: %v", s, got)
		}
	}
	if next, ok := g.NextArrival(100); !ok || next != math.MaxInt64 {
		t.Fatalf("NextArrival(100) = %d,%v, want MaxInt64,true", next, ok)
	}
}

// TestGeneratorSkipNeutral is the neutrality contract behind slot
// skipping: calling Arrivals on every slot and calling it only on the
// slots NextArrival announces must produce identical requests and leave
// the generator's stream in the identical state.
func TestGeneratorSkipNeutral(t *testing.T) {
	build := func() (*Generator, *rand.Rand) {
		setup := rand.New(rand.NewSource(7))
		tp := topo.Uniform(60, 0.2, setup)
		rng := rand.New(rand.NewSource(99))
		g := NewGenerator(tp, rng)
		g.Rate = 0.002
		return g, rng
	}
	type arr struct {
		slot sim.Slot
		src  int
		dsts int
		kind sim.Kind
	}
	const slots = 4000

	var dense []arr
	gd, rngD := build()
	for s := sim.Slot(0); s < slots; s++ {
		for _, r := range gd.Arrivals(s) {
			dense = append(dense, arr{s, r.Src, len(r.Dests), r.Kind})
		}
	}

	var sparse []arr
	gs, rngS := build()
	for s := sim.Slot(0); s < slots; {
		next, ok := gs.NextArrival(s)
		if !ok || next >= slots {
			break
		}
		for _, r := range gs.Arrivals(next) {
			sparse = append(sparse, arr{next, r.Src, len(r.Dests), r.Kind})
		}
		s = next + 1
	}

	if len(dense) == 0 {
		t.Fatal("no arrivals generated; the comparison is vacuous")
	}
	if len(dense) != len(sparse) {
		t.Fatalf("dense produced %d arrivals, sparse %d", len(dense), len(sparse))
	}
	for i := range dense {
		if dense[i] != sparse[i] {
			t.Fatalf("arrival %d diverged: dense %+v, sparse %+v", i, dense[i], sparse[i])
		}
	}
	if d, s := rngD.Float64(), rngS.Float64(); d != s {
		t.Fatalf("PRNG state diverged after the run: %v vs %v", d, s)
	}
}

// TestGeneratorEmptySlotsDrawNothing: Arrivals on a slot before the
// cursor must not consume the stream. Twin runs — one probing every
// empty slot, one probing none — must leave the stream identical.
func TestGeneratorEmptySlotsDrawNothing(t *testing.T) {
	build := func() (*Generator, *rand.Rand) {
		setup := rand.New(rand.NewSource(7))
		tp := topo.Uniform(20, 0.2, setup)
		rng := rand.New(rand.NewSource(5))
		g := NewGenerator(tp, rng)
		g.Rate = 0.0001
		return g, rng
	}
	gA, rngA := build()
	gA.Arrivals(0) // init draw
	nextA, ok := gA.NextArrival(1)
	if !ok {
		t.Fatal("rate > 0 must always announce a next arrival")
	}
	for s := sim.Slot(1); s < nextA && s < 1000; s++ {
		if got := gA.Arrivals(s); len(got) != 0 {
			t.Fatalf("arrivals before the cursor at %d: %v", s, got)
		}
	}
	gB, rngB := build()
	gB.Arrivals(0) // init draw only; no empty-slot probes
	if rngA.Float64() != rngB.Float64() {
		t.Fatal("empty-slot Arrivals consumed the PRNG")
	}
}

// TestScriptNextArrival pins the EventSource view of a Script.
func TestScriptNextArrival(t *testing.T) {
	s := NewScript()
	s.At(30, &sim.Request{Src: 0, Kind: sim.Broadcast})
	s.At(10, &sim.Request{Src: 1, Kind: sim.Broadcast})
	if got, ok := s.NextArrival(0); !ok || got != 10 {
		t.Fatalf("NextArrival(0) = %d,%v, want 10,true", got, ok)
	}
	if got, ok := s.NextArrival(11); !ok || got != 30 {
		t.Fatalf("NextArrival(11) = %d,%v, want 30,true", got, ok)
	}
	if _, ok := s.NextArrival(31); ok {
		t.Fatal("NextArrival past the last release must report ok=false")
	}
	// A later At invalidates the sorted view.
	s.At(50, &sim.Request{Src: 0, Kind: sim.Broadcast})
	if got, ok := s.NextArrival(31); !ok || got != 50 {
		t.Fatalf("NextArrival(31) = %d,%v, want 50,true", got, ok)
	}
}

package relbench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a test-sized profile so the suite stays fast.
var tiny = Profile{Name: "tiny", EngineSlots: 1500, SparseSlots: 3000, ProtocolSlots: 400, Reps: 1}

func TestMeasureProducesCompleteReport(t *testing.T) {
	r, err := Measure(tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != Schema || r.Profile != "tiny" || r.GoVersion == "" {
		t.Fatalf("bad header: %+v", r)
	}
	if r.Engine.Optimized.NsPerSlot <= 0 || r.Engine.Reference.NsPerSlot <= 0 {
		t.Fatalf("non-positive timings: %+v", r.Engine)
	}
	if r.Engine.Speedup <= 0 {
		t.Fatalf("bad speedup: %v", r.Engine.Speedup)
	}
	if r.Sparse == nil {
		t.Fatal("schema-2 report missing the sparse engine pair")
	}
	if r.Sparse.Optimized.NsPerSlot <= 0 || r.Sparse.Reference.NsPerSlot <= 0 || r.Sparse.Speedup <= 0 {
		t.Fatalf("bad sparse pair: %+v", r.Sparse)
	}
	if r.Host.Cores < 1 || r.Host.GOMAXPROCS < 1 || r.Host.Go == "" || r.Host.OS == "" || r.Host.Arch == "" {
		t.Fatalf("bad host metadata: %+v", r.Host)
	}
	if len(r.Protocols) != 5 {
		t.Fatalf("want 5 protocol samples, got %d", len(r.Protocols))
	}
	for _, p := range r.Protocols {
		if p.WallMs <= 0 || p.SlotsPerSec <= 0 {
			t.Fatalf("bad protocol sample: %+v", p)
		}
	}
}

func TestCompareGates(t *testing.T) {
	pin := &Report{
		Schema:  Schema,
		Profile: "quick",
		Engine: Engine{
			Optimized: EngineSample{NsPerSlot: 1000, AllocsPerSlot: 1},
			Reference: EngineSample{NsPerSlot: 2000},
			Speedup:   2.0,
		},
	}
	base := Baseline{"quick": pin}

	ok := &Report{Schema: Schema, Profile: "quick", Engine: Engine{
		Optimized: EngineSample{NsPerSlot: 3000, AllocsPerSlot: 1.1},
		Reference: EngineSample{NsPerSlot: 5700},
		Speedup:   1.9,
	}}
	if regs, _ := Compare(ok, base, 0.25); len(regs) != 0 {
		t.Fatalf("within-tolerance report flagged: %v", regs)
	}

	slow := &Report{Schema: Schema, Profile: "quick", Engine: Engine{
		Optimized: EngineSample{NsPerSlot: 2000, AllocsPerSlot: 1},
		Reference: EngineSample{NsPerSlot: 2400},
		Speedup:   1.2,
	}}
	if regs, _ := Compare(slow, base, 0.25); len(regs) != 1 {
		t.Fatalf("speedup regression not flagged: %v", regs)
	}

	leaky := &Report{Schema: Schema, Profile: "quick", Engine: Engine{
		Optimized: EngineSample{NsPerSlot: 1000, AllocsPerSlot: 3},
		Reference: EngineSample{NsPerSlot: 2000},
		Speedup:   2.0,
	}}
	if regs, _ := Compare(leaky, base, 0.25); len(regs) != 1 {
		t.Fatalf("alloc regression not flagged: %v", regs)
	}

	// Sparse gating: a baseline with a sparse pin flags a sparse slowdown.
	pin.Sparse = &Engine{
		Optimized: EngineSample{NsPerSlot: 200, AllocsPerSlot: 0.5},
		Reference: EngineSample{NsPerSlot: 2000},
		Speedup:   10.0,
	}
	sparseSlow := &Report{Schema: Schema, Profile: "quick", Engine: pin.Engine,
		Sparse: &Engine{
			Optimized: EngineSample{NsPerSlot: 500, AllocsPerSlot: 0.5},
			Reference: EngineSample{NsPerSlot: 2000},
			Speedup:   4.0,
		}}
	if regs, _ := Compare(sparseSlow, base, 0.25); len(regs) != 1 {
		t.Fatalf("sparse speedup regression not flagged: %v", regs)
	}
	sparseLeaky := &Report{Schema: Schema, Profile: "quick", Engine: pin.Engine,
		Sparse: &Engine{
			Optimized: EngineSample{NsPerSlot: 200, AllocsPerSlot: 2},
			Reference: EngineSample{NsPerSlot: 2000},
			Speedup:   10.0,
		}}
	if regs, _ := Compare(sparseLeaky, base, 0.25); len(regs) != 1 {
		t.Fatalf("sparse alloc regression not flagged: %v", regs)
	}
	// A schema-1 report without the sparse pair still compares cleanly.
	noSparse := &Report{Schema: Schema, Profile: "quick", Engine: pin.Engine}
	if regs, _ := Compare(noSparse, base, 0.25); len(regs) != 0 {
		t.Fatalf("sparse-less report flagged: %v", regs)
	}
	pin.Sparse = nil

	foreign := &Report{Schema: Schema, Profile: "full"}
	regs, advs := Compare(foreign, base, 0.25)
	if len(regs) != 0 || len(advs) != 1 {
		t.Fatalf("missing-profile should be advisory: regs=%v advs=%v", regs, advs)
	}

	// A host mismatch is advisory only — absolute numbers stop being
	// comparable, but the ratio gates still hold.
	pin.Host = Host{Cores: 64, GOMAXPROCS: 64, Go: "go0.0", OS: "plan9", Arch: "mips"}
	hostDiff := &Report{Schema: Schema, Profile: "quick", Engine: pin.Engine, Host: HostInfo()}
	regs, advs = Compare(hostDiff, base, 0.25)
	if len(regs) != 0 {
		t.Fatalf("host mismatch must never fail the gate: %v", regs)
	}
	found := false
	for _, a := range advs {
		if strings.Contains(a, "host differs") {
			found = true
		}
	}
	if !found {
		t.Fatalf("host mismatch must surface as an advisory: %v", advs)
	}
	pin.Host = Host{}

	// A baseline pinned under another schema fails loudly instead of
	// silently skipping the gate.
	old := &Report{Schema: Schema - 1, Profile: "quick", Engine: pin.Engine}
	regs, _ = Compare(&Report{Schema: Schema, Profile: "quick", Engine: pin.Engine}, Baseline{"quick": old}, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "schema") {
		t.Fatalf("schema-%d baseline must be a regression: %v", Schema-1, regs)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	r := &Report{Schema: Schema, Profile: "quick",
		Engine: Engine{Speedup: 2.0, Optimized: EngineSample{NsPerSlot: 1}}}
	if err := WriteReport(path, r); err != nil {
		t.Fatal(err)
	}
	// A report file doubles as a single-profile baseline when wrapped;
	// here exercise LoadBaseline on the committed map layout.
	if err := os.WriteFile(path, []byte(`{"quick":{"schema":1,"profile":"quick","go":"go1.24","engine":{"optimized":{"ns_per_slot":1,"slots_per_sec":1,"bytes_per_slot":1,"allocs_per_slot":1},"reference":{"ns_per_slot":2,"slots_per_sec":1,"bytes_per_slot":1,"allocs_per_slot":1},"speedup":2},"protocols":null}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b["quick"] == nil || b["quick"].Engine.Speedup != 2 {
		t.Fatalf("round trip lost data: %+v", b)
	}
	empty, err := LoadBaseline(filepath.Join(dir, "missing.json"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing baseline should be empty: %v %v", empty, err)
	}
}

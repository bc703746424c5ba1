package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadGraphSrc type-checks one synthetic package from source (in a temp
// directory, under the real module's loader so stdlib and relmac imports
// resolve) and builds a call graph over everything the loader saw.
func loadGraphSrc(t *testing.T, name, src string) (*Graph, *Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "cgfix/"+name)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("type error: %v", terr)
	}
	return BuildGraph(loader.All(), DefaultConfig().SimPkgPath), pkg
}

// graphFunc finds a declared function by its shortName rendering.
func graphFunc(t *testing.T, g *Graph, pkg *Package, short string) *types.Func {
	t.Helper()
	for _, n := range g.FuncsOf(pkg) {
		if shortName(n.Fn) == short {
			return n.Fn
		}
	}
	t.Fatalf("function %s not found in %s", short, pkg.Path)
	return nil
}

// TestCallGraphInterfaceDispatch checks the two edge policies on a
// dynamic call: with interface expansion the goroutine inside one
// implementation is reachable through the interface call; static-only
// treats the dispatch as an attachment boundary.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g, pkg := loadGraphSrc(t, "a", `// Package a exercises interface dispatch.
package a

type doer interface{ do() }

type spawner struct{}

func (spawner) do() { go idle() }

type calm struct{}

func (calm) do() {}

func idle() {}

func drive(d doer) { d.do() }

func viaIface() { drive(spawner{}) }
`)
	via := graphFunc(t, g, pkg, "a.viaIface")
	if !g.Reaches(via, FactGoSpawn, false) {
		t.Error("viaIface must reach the goroutine through interface expansion")
	}
	if g.Reaches(via, FactGoSpawn, true) {
		t.Error("static-only closure must stop at the interface call")
	}
	if calmDo := graphFunc(t, g, pkg, "(a.calm).do"); g.Reaches(calmDo, FactGoSpawn, false) {
		t.Error("calm.do spawns nothing and must not inherit spawner's fact")
	}
	path := g.WitnessPath(via, FactGoSpawn, false)
	if !strings.Contains(path, "(a.spawner).do") || !strings.Contains(path, "goroutine spawn") {
		t.Errorf("witness path %q must pass through (a.spawner).do to the go statement", path)
	}
}

// TestCallGraphMethodValue checks that referencing a method as a value
// (without calling it) produces a conservative edge: the reference can
// be invoked later from a context the graph cannot see.
func TestCallGraphMethodValue(t *testing.T) {
	g, pkg := loadGraphSrc(t, "b", `// Package b exercises method-value references.
package b

type ticker struct{}

func (ticker) tick() { go run() }

func run() {}

func handle() func() {
	t := ticker{}
	return t.tick
}
`)
	h := graphFunc(t, g, pkg, "b.handle")
	if !g.Reaches(h, FactGoSpawn, true) {
		t.Error("handle references ticker.tick as a value and must reach its goroutine spawn")
	}
}

// TestCallGraphRecursion checks that mutual recursion collapses into one
// SCC (the closure terminates) and that a fact inside the cycle is
// visible from every member.
func TestCallGraphRecursion(t *testing.T) {
	g, pkg := loadGraphSrc(t, "c", `// Package c exercises a recursive call cycle.
package c

func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	ping(n)
	go func() {}()
}
`)
	for _, name := range []string{"c.ping", "c.pong"} {
		if fn := graphFunc(t, g, pkg, name); !g.Reaches(fn, FactGoSpawn, true) {
			t.Errorf("%s is in the cycle and must reach the go statement", name)
		}
		if fn := graphFunc(t, g, pkg, name); g.Reaches(fn, FactWallClock, true) {
			t.Errorf("%s must not report facts the cycle does not contain", name)
		}
	}
}

// TestMutationGuardSimsafeCrossPackage is the cross-package teeth check
// for the v2 reachability: a goroutine spawned two helpers deep in a
// NON-serial package is flagged exactly once, at the call site where the
// serial path escapes into it.
func TestMutationGuardSimsafeCrossPackage(t *testing.T) {
	const gomod = "module mutfix\n\ngo 1.22\n"
	const engSrc = `// Package eng is the serial-path side of the cross-package guard.
package eng

import "mutfix/util"

type core struct{}

func (c *core) resolveSlot() {
	util.HelperA()
}
`
	const cleanUtil = `// Package util holds helpers outside the serial path.
package util

func HelperA() { helperB() }

func helperB() { work() }

func work() {}
`
	mutatedUtil := strings.Replace(cleanUtil, "func helperB() { work() }", "func helperB() { go work() }", 1)

	lintModule := func(utilSrc string) Result {
		t.Helper()
		dir := t.TempDir()
		for rel, src := range map[string]string{
			"go.mod":       gomod,
			"eng/eng.go":   engSrc,
			"util/util.go": utilSrc,
		} {
			path := filepath.Join(dir, filepath.FromSlash(rel))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load([]string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SerialPaths = []string{"mutfix/eng"}
		return mustRun(t, loader, pkgs, cfg)
	}

	if res := lintModule(cleanUtil); len(res.Findings) != 0 {
		t.Fatalf("clean module: findings = %v, want none", res.Findings)
	}
	res := lintModule(mutatedUtil)
	if len(res.Findings) != 1 {
		t.Fatalf("mutated module: findings = %v, want exactly one", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "simsafe" || f.Line != 9 || !strings.Contains(f.Message, "goroutine spawn") ||
		!strings.Contains(f.Message, "util.HelperA") {
		t.Errorf("mutated module: got %s, want a simsafe escape finding at eng.go:9 naming util.HelperA", f)
	}
}

// TestMutationGuardPrngflow proves the PRNG-taint half of hookpure has
// teeth: a hook implementation that merely counts lints clean, and
// injecting a single draw from a field-held generator produces exactly
// one hookpure finding at the hook declaration.
func TestMutationGuardPrngflow(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const clean = `// Package tapfix is a hookpure mutation-guard fixture.
package tapfix

import (
	"math/rand"

	"relmac/internal/sim"
)

type tap struct {
	rng   *rand.Rand
	slots int
}

func (t *tap) Observe(ev *sim.Event) {
	t.slots++
}

func (t *tap) Kinds() sim.KindSet { return sim.Kinds(sim.EvSlot) }
`
	mutated := strings.Replace(clean, "t.slots++", "t.slots += t.rng.Intn(4)", 1)

	lintSrc := func(name, src string) Result {
		t.Helper()
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "tapfix.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, "mutfix/"+name)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, loader, []*Package{pkg}, DefaultConfig())
	}

	if res := lintSrc("clean", clean); len(res.Findings) != 0 {
		t.Fatalf("clean fixture: findings = %v, want none", res.Findings)
	}
	res := lintSrc("mut", mutated)
	if len(res.Findings) != 1 {
		t.Fatalf("mutated fixture: findings = %v, want exactly one", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "hookpure" || f.Line != 15 || !strings.Contains(f.Message, "PRNG-neutral") {
		t.Errorf("mutated fixture: got %s, want a hookpure finding at the Observe declaration (line 15)", f)
	}
}

// TestParamDrawFact checks the PRNG provenance split: a draw from a
// parameter-supplied generator produces FactParamDraw, a draw from a
// field-held generator produces FactTaintedDraw (the one maporder
// counts), and a locally constructed, explicitly seeded generator
// produces neither.
func TestParamDrawFact(t *testing.T) {
	g, pkg := loadGraphSrc(t, "pd", `// Package pd exercises PRNG draw provenance.
package pd

import "math/rand"

type holder struct{ rng *rand.Rand }

func fromParam(rng *rand.Rand) float64 { return rng.Float64() }

func (h *holder) fromField() float64 { return h.rng.Float64() }

func fromLocal() float64 {
	rng := rand.New(rand.NewSource(1))
	return rng.Float64()
}
`)
	cases := []struct {
		fn      string
		param   bool
		tainted bool
	}{
		{"pd.fromParam", true, false},
		{"(pd.holder).fromField", false, true},
		{"pd.fromLocal", false, false},
	}
	for _, c := range cases {
		fn := graphFunc(t, g, pkg, c.fn)
		if got := g.Reaches(fn, FactParamDraw, true); got != c.param {
			t.Errorf("%s: FactParamDraw = %v, want %v", c.fn, got, c.param)
		}
		if got := g.Reaches(fn, FactTaintedDraw, true); got != c.tainted {
			t.Errorf("%s: FactTaintedDraw = %v, want %v", c.fn, got, c.tainted)
		}
	}
}

// TestClosureCycleMembersShareFacts: every member of a call cycle
// reaches what any member reaches. Here only a calls out of the cycle
// {a, b}, and the component walk lists b first.
func TestClosureCycleMembersShareFacts(t *testing.T) {
	g, pkg := loadGraphSrc(t, "cyc", `// Package cyc exercises a fact reached from inside a call cycle.
package cyc

import "math/rand"

func a(n int) {
	if n > 0 {
		b(n - 1)
	}
	draw()
}

func b(n int) { a(n) }

func draw() int { return rand.Intn(2) }
`)
	for _, name := range []string{"cyc.a", "cyc.b"} {
		if !g.Reaches(graphFunc(t, g, pkg, name), FactGlobalRand, true) {
			t.Errorf("%s does not reach the draw its cycle reaches", name)
		}
	}
}

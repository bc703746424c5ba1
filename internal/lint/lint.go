// Package lint implements relmaclint, the project's static-analysis
// suite. It enforces, mechanically, the reproducibility invariants that
// golden and per-seed tests cannot see — a literal seed, say, replays
// identically on every run. Properties a dynamic test pins better
// (allocation budgets, float-tolerance edge cases) are tested, not
// linted; DESIGN.md §9.2 keeps the per-check ledger.
//
// The suite is built on two shared layers (see callgraph.go and
// dataflow.go): a module-wide call graph — static calls, method-value
// references, and interface dispatch approximated by implementing-type
// sets — and a lightweight intra-procedural dataflow pass that tracks
// PRNG provenance and stores into engine state. Both are built once per
// Suite run; every analyzer queries the same instance.
//
// The checks:
//
//   - determinism: no wall-clock reads (time.Now, time.Since) and no
//     global math/rand functions on sim-path packages — direct calls and
//     static call chains that reach one, however many helpers deep;
//   - seedflow: every rand.New / rand.NewSource seed must be traceable to
//     a parameter, config field or derivation — never an untracked
//     literal;
//   - frameswitch: every switch over the frames.Type tag is either
//     exhaustive against frames.NumTypes or carries a default;
//   - simsafe: no goroutine spawns and no sync.Pool in the packages that
//     run inside the slot loop, nor reachable from them through static
//     calls — recycling there must use explicit deterministic free-lists;
//   - docpresent: every sim-path package carries a package doc comment
//     stating its role, determinism constraints and entry points;
//   - hookpure: hook implementations (sim.Observer, SlotObserver,
//     LifecycleObserver, Tracer and Profiler) must reach neither a PRNG
//     draw — a draw inside a hook shifts every later draw in the run, so
//     attaching the hook changes trajectories — nor a sim.Engine/Env
//     mutation (stores through engine state, or non-allowlisted
//     Engine/Env method calls);
//   - maporder: map iteration in sim-path packages must not leak Go's
//     randomized iteration order — no draws, output, unsorted result
//     appends or float accumulation in range bodies.
//
// There is no suppression directive: a finding is fixed, or the check is
// changed. The package uses only the standard library (go/ast,
// go/parser, go/types, go/importer), keeping the module dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Config selects which checks run and pins the import paths the
// path-sensitive checks key on. The zero value is not useful; start from
// DefaultConfig. The fixture harness overrides the path fields to point
// at testdata packages.
type Config struct {
	// Checks restricts the run to the named analyzers; empty means all.
	Checks []string
	// SimPaths are the import-path prefixes of sim-path packages — the
	// bit-reproducible core the determinism check guards.
	SimPaths []string
	// SerialPaths are the import-path prefixes of the packages that run
	// inside the slot loop, guarded by the simsafe check. A strict
	// subset of the sim path: the experiment harness is sim-path (its
	// seeds feed engines) but not serial (Sweep legitimately fans out
	// workers).
	SerialPaths []string
	// FramesPath is the package defining the frame Type tag and NumTypes.
	FramesPath string
	// SimPkgPath is the package defining the engine and its hook
	// interfaces (Observer, SlotObserver, LifecycleObserver, Tracer,
	// Profiler, MAC).
	SimPkgPath string
}

// DefaultConfig returns the project configuration: the sim-path package
// set whose byte-for-byte reproducibility the golden tests pin, and the
// frames/sim anchor packages.
func DefaultConfig() *Config {
	return &Config{
		SimPaths: []string{
			"relmac/internal/sim",
			"relmac/internal/core",
			"relmac/internal/mac",
			"relmac/internal/baseline",
			"relmac/internal/fault",
			"relmac/internal/frames",
			"relmac/internal/geom",
			// The experiment harness drives the sim path (Run, Sweep,
			// seedFor): a wall-clock read there perturbs nothing today but
			// is exactly the class of drift the check exists to stop.
			"relmac/internal/experiments",
			// The phase profiler's hooks run inside the slot loop; its
			// clock is injectable (never a static time.Now call), and
			// hookpure holds its hooks to PRNG/engine neutrality.
			"relmac/internal/prof",
		},
		SerialPaths: []string{
			"relmac/internal/sim",
			"relmac/internal/core",
			"relmac/internal/mac",
			"relmac/internal/baseline",
			"relmac/internal/fault",
			"relmac/internal/frames",
			"relmac/internal/geom",
			"relmac/internal/topo",
			"relmac/internal/traffic",
			"relmac/internal/metrics",
			"relmac/internal/obs",
			"relmac/internal/capture",
			"relmac/internal/mobility",
			"relmac/internal/prof",
		},
		FramesPath: "relmac/internal/frames",
		SimPkgPath: "relmac/internal/sim",
	}
}

// Finding is one rule violation at a source position.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Result is the outcome of one suite run.
type Result struct {
	Findings []Finding `json:"findings"`
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Pass gives an analyzer its package plus the configuration, the suite
// (for the shared call graph) and a report sink.
type Pass struct {
	*Package
	Cfg    *Config
	Suite  *Suite
	report func(pos token.Pos, msg string)
}

// Graph returns the suite's shared module-wide call graph.
func (p *Pass) Graph() *Graph { return p.Suite.Graph() }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzers returns the full suite in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		seedflowAnalyzer,
		frameswitchAnalyzer,
		simsafeAnalyzer,
		docpresentAnalyzer,
		hookpureAnalyzer,
		maporderAnalyzer,
	}
}

// CheckNames returns the valid check names, for -checks validation and
// CLI help.
func CheckNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// pathHasPrefix reports whether the import path is the prefix itself or a
// sub-package of it.
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// inSimPath reports whether the package is part of the bit-reproducible
// sim path.
func (c *Config) inSimPath(path string) bool {
	for _, p := range c.SimPaths {
		if pathHasPrefix(path, p) {
			return true
		}
	}
	return false
}

// funcFor returns the innermost function declaration enclosing pos in the
// file, if any.
func funcFor(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

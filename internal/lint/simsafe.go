package lint

import (
	"go/ast"
	"go/types"
)

// simsafeAnalyzer bans concurrency primitives that silently break the
// slot loop's determinism in serial-path packages — the code that runs
// inside a single simulation slot:
//
//   - go statements: the engine's bit-reproducibility rests on a single
//     goroutine draining one PRNG in station-ID order; a goroutine
//     spawned anywhere under step() reorders draws (or races on them)
//     in ways no golden test can pin down;
//   - sync.Pool, in any position (value, pointer, struct field): Pool's
//     per-P caches and GC-triggered clearing make object reuse order
//     scheduler-dependent. Hot-path recycling must use an explicit
//     deterministic free-list (see the transmission free-list in
//     internal/sim), which is just as fast and replays identically.
//
// Other sync primitives (Mutex, WaitGroup, atomic) stay legal: they are
// deterministic under a single goroutine and harmless in cold paths.
// The experiment harness is deliberately outside the serial set — Sweep
// fans runs out across workers, which is safe because each run owns an
// engine and a PRNG.
//
// Since v2 the check also follows static calls out of the serial set: a
// helper chain that ends in a go statement is flagged at the call site
// where the serial path escapes, with the offending path in the message.
// Interface dispatch is not followed — attaching a concurrent observer
// is a deliberate act by the code outside the loop that owns it.
var simsafeAnalyzer = &Analyzer{
	Name: "simsafe",
	Doc:  "no goroutine spawns or sync.Pool (direct or statically reachable) in serial sim-path packages",
	Run:  runSimsafe,
}

func runSimsafe(p *Pass) {
	if !p.Cfg.inSerialPath(p.Path) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "goroutine spawned on the serial sim path; the slot loop must stay single-threaded for PRNG-order determinism")
			case *ast.Ident:
				if tn, ok := p.Info.Uses[n].(*types.TypeName); ok && isSyncPool(tn) {
					p.Reportf(n.Pos(), "sync.Pool on the serial sim path; reuse order is scheduler-dependent — use an explicit deterministic free-list")
				}
			}
			return true
		})
	}
	reportEscapes(p, p.Cfg.inSerialPath, "simsafe", []FactKind{FactGoSpawn, FactSyncPool})
}

// isSyncPool reports whether the type name is sync.Pool.
func isSyncPool(tn *types.TypeName) bool {
	return tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool"
}

// inSerialPath reports whether the package runs inside the slot loop.
func (c *Config) inSerialPath(path string) bool {
	for _, p := range c.SerialPaths {
		if pathHasPrefix(path, p) {
			return true
		}
	}
	return false
}

package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// Suite ties one Loader, one Config and one lazily built call graph
// together for a single lint run. The expensive work — parsing,
// type-checking, and the module-wide call-graph construction — happens
// exactly once regardless of how many analyzers consume it: the Loader memoises every package it has ever loaded, and
// Graph() builds over that full set on first use and caches the result.
// Before the Suite existed each reachability-style consumer would have
// re-walked the module on its own.
type Suite struct {
	Loader *Loader
	Cfg    *Config

	graph *Graph
	hot   map[*types.Func]string
}

// NewSuite builds a suite over the loader and configuration.
func NewSuite(l *Loader, cfg *Config) *Suite {
	return &Suite{Loader: l, Cfg: cfg}
}

// Graph returns the module-wide call graph over every package the loader
// has seen — lint targets and their module-internal imports alike —
// building it on first call.
func (s *Suite) Graph() *Graph {
	if s.graph == nil {
		s.graph = BuildGraph(s.Loader.All(), s.Cfg.SimPkgPath)
	}
	return s.graph
}

// All returns every package this loader has loaded, targets and
// module-internal imports alike, in import-path order.
func (l *Loader) All() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Run executes the configured analyzers over the given target packages
// and applies //relmac:allow directives. Findings and suppressions come
// back sorted by position.
func (s *Suite) Run(pkgs []*Package) Result {
	cfg := s.Cfg
	enabled := map[string]bool{}
	for _, c := range cfg.Checks {
		enabled[c] = true
	}
	// Non-nil slices keep the -json output `[]` rather than `null`,
	// which is what CI annotation tooling expects.
	res := Result{Findings: []Finding{}, Suppressions: []Suppression{}}
	for _, pkg := range pkgs {
		dirs, malformed := parseDirectives(pkg)
		res.Findings = append(res.Findings, malformed...)
		var raw []Finding
		for _, a := range Analyzers() {
			if len(enabled) > 0 && !enabled[a.Name] {
				continue
			}
			name := a.Name
			pass := &Pass{
				Package: pkg,
				Cfg:     cfg,
				Suite:   s,
				report: func(pos token.Pos, msg string) {
					p := pkg.Fset.Position(pos)
					raw = append(raw, Finding{
						Check: name, File: p.Filename, Line: p.Line, Col: p.Column, Message: msg,
					})
				},
			}
			a.Run(pass)
		}
		for _, f := range raw {
			if d := dirs.match(f); d != nil {
				d.used = true
				res.Suppressions = append(res.Suppressions, Suppression{
					Check: f.Check, File: f.File, Line: f.Line, Reason: d.reason,
				})
				continue
			}
			res.Findings = append(res.Findings, f)
		}
		// A directive that silenced nothing is stale: either the violation
		// was fixed (delete the directive) or the check name is wrong.
		for _, d := range dirs {
			if !d.used {
				res.Findings = append(res.Findings, Finding{
					Check: "directive", File: d.file, Line: d.line, Col: 1,
					Message: fmt.Sprintf("//relmac:allow %s suppresses nothing on this line; remove it", d.check),
				})
			}
		}
	}
	sortFindings(res.Findings)
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res
}

// Run executes the configured analyzers with a fresh suite over the
// loader. Kept as the convenience entry point for callers that do not
// need the suite's graph afterwards.
func Run(l *Loader, pkgs []*Package, cfg *Config) Result {
	return NewSuite(l, cfg).Run(pkgs)
}

package lint

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"
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

// Run executes the configured analyzers over the given target packages.
// Findings come back sorted by position. An unknown name in Cfg.Checks
// is an error, not a silent no-op: a misspelt check must not pass as a
// clean run.
func (s *Suite) Run(pkgs []*Package) (Result, error) {
	cfg := s.Cfg
	var unknown []string
	for _, c := range cfg.Checks {
		if !slices.Contains(CheckNames(), c) {
			unknown = append(unknown, c)
		}
	}
	if len(unknown) > 0 {
		return Result{}, fmt.Errorf("unknown check(s) %s; valid: %s",
			strings.Join(unknown, ","), strings.Join(CheckNames(), ","))
	}
	// A non-nil slice keeps the -json output `[]` rather than `null`.
	res := Result{Findings: []Finding{}}
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			if len(cfg.Checks) > 0 && !slices.Contains(cfg.Checks, a.Name) {
				continue
			}
			name := a.Name
			a.Run(&Pass{
				Package: pkg,
				Cfg:     cfg,
				Suite:   s,
				report: func(pos token.Pos, msg string) {
					p := pkg.Fset.Position(pos)
					res.Findings = append(res.Findings, Finding{
						Check: name, File: p.Filename, Line: p.Line, Col: p.Column, Message: msg,
					})
				},
			})
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// Run executes the configured analyzers with a fresh suite over the
// loader. Kept as the convenience entry point for callers that do not
// need the suite's graph afterwards.
func Run(l *Loader, pkgs []*Package, cfg *Config) (Result, error) {
	return NewSuite(l, cfg).Run(pkgs)
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package, the unit every
// analyzer operates on. Test files (*_test.go) are never loaded: the lint
// invariants guard the simulation path, and tests are free to use wall
// clocks and throwaway seeds. Nor are files the default build excludes
// by a build constraint (the framescribble checker's files).
type Package struct {
	// Path is the import path ("relmac/internal/sim").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files holds the parsed files, with comments, in filename order.
	Files []*ast.File
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
	// TypeErrors collects soft type-check errors. The real module checks
	// clean; fixtures are required to as well, so the test harness can
	// surface them.
	TypeErrors []error
}

// The standard library is type-checked from source once per process:
// every Loader shares one FileSet and one stdlib source importer, which
// keeps the packages it has checked. stdMu serialises the importer,
// which is not safe for concurrent use.
var (
	sharedFset  = token.NewFileSet()
	stdImporter = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	stdMu       sync.Mutex
)

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved against the
// module root and checked from source recursively, everything else is
// delegated to the stdlib source importer (compiled export data for the
// standard library is not assumed to exist).
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod ("relmac").
	ModulePath string

	// Fset positions every file the Loader parses; it is the FileSet all
	// Loaders of the process share.
	Fset *token.FileSet

	pkgs map[string]*Package
}

// NewLoader builds a loader for the module rooted at root. The module
// path is read from go.mod.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       sharedFset,
		pkgs:       map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given package patterns and returns the loaded
// packages in deterministic (import path) order. Supported patterns are
// "./...", "./dir/...", "./dir" and plain relative directories, all
// interpreted relative to the module root. Directories named testdata or
// vendor, and hidden directories, are skipped by "..." expansion, per the
// go tool's convention.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		base := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var out []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if goSource(e) {
			return true
		}
	}
	return false
}

// goSource reports whether the directory entry is a non-test Go file.
func goSource(e os.DirEntry) bool {
	n := e.Name()
	return !e.IsDir() && strings.HasSuffix(n, ".go") &&
		!strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_")
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, memoising by path. It is the entry point the fixture
// harness uses to load testdata packages whose directory lies outside the
// normal package tree.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if !goSource(e) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Fset: l.Fset}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter adapts the Loader into a types.Importer that resolves
// module-internal paths from source and defers everything else to the
// stdlib source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: type errors in %s: %v", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.ImportFrom(path, l.ModuleRoot, 0)
}

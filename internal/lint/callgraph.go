package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the module-wide call graph the v2 analyzers share.
// Nodes are the module's declared functions and methods (one per
// *types.Func with a body in a loaded package); edges are resolved call
// sites. Three dispatch forms produce edges:
//
//   - static calls: the callee identifier resolves to a *types.Func;
//   - interface-method calls: approximated by the implementing-type set —
//     every loaded concrete type whose method set satisfies the interface
//     contributes its corresponding method as a possible target;
//   - method values and function references: mentioning a function
//     without calling it (storing it in a field, passing it as a
//     callback) conservatively counts as a potential call, since the
//     reference can be invoked later from a context the graph cannot see.
//
// Function literals are folded into their enclosing declaration: a
// goroutine spawned inside a closure three helpers below resolveSlot is
// attributed to the helper, which is exactly the attribution the
// reachability checks need. Standard-library callees have no bodies in
// the loaded set and therefore no outgoing edges; the determinism facts
// that matter there (time.Now, global math/rand) are recognised by
// identity at the call site instead.

// FactKind enumerates the banned-behaviour facts the reachability checks
// propagate over the graph.
type FactKind uint8

// Fact kinds.
const (
	// FactGoSpawn: the function body contains a go statement.
	FactGoSpawn FactKind = iota
	// FactSyncPool: the function body mentions sync.Pool.
	FactSyncPool
	// FactWallClock: the function body calls time.Now or time.Since.
	FactWallClock
	// FactGlobalRand: the function body calls a global math/rand function.
	FactGlobalRand
	// FactTaintedDraw: the function body draws from a *rand.Rand that is
	// not provably a locally seeded generator (see dataflow.go).
	FactTaintedDraw
	// FactParamDraw: the function body draws from a *rand.Rand received
	// as a parameter (or the receiver). Still a shared-stream draw from
	// an observer hook's point of view; maporder counts only
	// FactTaintedDraw, since the caller chose the stream.
	FactParamDraw
	// FactEngineWrite: the function body stores through sim.Engine or
	// sim.Env state or through a *sim.Request or *frames.Frame, or calls
	// a mutating Engine/Env method.
	FactEngineWrite
	// FactProcessIO: the function performs process-global I/O — package
	// os or log, or the fmt.Print* family writing to stdout.
	FactProcessIO
	numFactKinds
)

// factMask is a bitset over FactKind.
type factMask uint16

func (m factMask) has(k FactKind) bool { return m&(1<<k) != 0 }

// Fact is one banned-behaviour site inside a function body.
type Fact struct {
	Kind FactKind
	Pos  token.Pos
	What string // human-readable description, e.g. "time.Now call"
}

// Call is one resolved call or function-reference site.
type Call struct {
	Pos token.Pos
	// Callee is the static target (declared function, method, or a
	// referenced method value). Nil for interface dispatch.
	Callee *types.Func
	// Iface is the interface method for dynamic dispatch; the concrete
	// targets are the implementing-type set's methods. Nil for static
	// calls.
	Iface *types.Func
}

// FuncNode is one function in the call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the resolved call/reference sites in source order.
	Calls []Call
	// Facts are the banned-behaviour sites found in the body.
	Facts []Fact

	mask factMask // direct facts as a bitset
}

// Graph is the module-wide call graph plus the shared fact index. Build
// it once per Suite run; every reachability analyzer queries the same
// instance.
type Graph struct {
	// Nodes maps each declared function to its node. Keys are canonical
	// (generic origins, not instantiations).
	Nodes map[*types.Func]*FuncNode
	// Pkgs are the packages the graph was built from, in path order.
	Pkgs []*Package
	// simPath is the import path of the package defining Engine/Env.
	simPath string

	// named lists every concrete (non-interface) named type in the
	// loaded packages, for implementing-type-set approximation.
	named []*types.Named
	// implCache memoises interface-method → implementing-method sets.
	implCache map[*types.Func][]*types.Func
	// closureCache memoises reachability masks per edge-policy.
	closureCache map[closureKey]map[*types.Func]factMask
}

type closureKey struct {
	staticOnly bool
}

// BuildGraph constructs the call graph over the given packages (normally
// every package the loader has seen, module-internal imports included).
// simPkgPath names the package defining Engine and Env, for the
// hook-purity facts; fixture packages import the real one.
func BuildGraph(pkgs []*Package, simPkgPath string) *Graph {
	g := &Graph{
		Nodes:        map[*types.Func]*FuncNode{},
		Pkgs:         pkgs,
		simPath:      simPkgPath,
		implCache:    map[*types.Func][]*types.Func{},
		closureCache: map[closureKey]map[*types.Func]factMask{},
	}
	for _, pkg := range pkgs {
		g.collectNamed(pkg)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.scanBody(node)
				for _, f := range node.Facts {
					node.mask |= 1 << f.Kind
				}
				g.Nodes[canon(fn)] = node
			}
		}
	}
	return g
}

// canon maps an instantiated generic function to its origin, so call
// sites and declarations agree on one node key.
func canon(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// collectNamed gathers the concrete named types of one package.
func (g *Graph) collectNamed(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		g.named = append(g.named, named)
	}
}

// scanBody resolves the function's call sites and extracts its facts in
// a single walk. Nested function literals are folded into the enclosing
// declaration.
func (g *Graph) scanBody(node *FuncNode) {
	pkg := node.Pkg
	info := pkg.Info
	df := newFuncData(node, g.simPath)

	// callHeads marks the identifiers in callee position, so plain
	// references (method values) can be told apart from calls.
	callHeads := map[*ast.Ident]bool{}
	ast.Inspect(node.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callHeads[fun] = true
		case *ast.SelectorExpr:
			callHeads[fun.Sel] = true
		}
		return true
	})

	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			node.Facts = append(node.Facts, Fact{FactGoSpawn, n.Pos(), "goroutine spawn (go statement)"})
		case *ast.Ident:
			if tn, ok := info.Uses[n].(*types.TypeName); ok && isSyncPool(tn) {
				node.Facts = append(node.Facts, Fact{FactSyncPool, n.Pos(), "sync.Pool use"})
			}
			if fn, ok := info.Uses[n].(*types.Func); ok && !callHeads[n] {
				// Function or method referenced as a value.
				if sig, ok := fn.Type().(*types.Signature); ok {
					if recv := sig.Recv(); recv == nil || !types.IsInterface(recv.Type()) {
						node.Calls = append(node.Calls, Call{Pos: n.Pos(), Callee: canon(fn)})
					}
				}
			}
		case *ast.CallExpr:
			g.scanCall(node, df, n)
		case *ast.AssignStmt, *ast.IncDecStmt:
			df.scanWrite(n)
		}
		return true
	})
}

// scanCall resolves one call expression into an edge and the facts it
// implies.
func (g *Graph) scanCall(node *FuncNode, df *funcData, call *ast.CallExpr) {
	info := node.Pkg.Info
	fn := calleeOf(info, call)
	if fn == nil {
		// Builtin, conversion, or a call through a function value.
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		node.Calls = append(node.Calls, Call{Pos: call.Pos(), Iface: fn})
	} else {
		node.Calls = append(node.Calls, Call{Pos: call.Pos(), Callee: canon(fn)})
	}
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if sig != nil && sig.Recv() == nil && bannedTime[fn.Name()] {
			node.Facts = append(node.Facts, Fact{FactWallClock, call.Pos(), "time." + fn.Name() + " call"})
		}
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()] {
			node.Facts = append(node.Facts, Fact{FactGlobalRand, call.Pos(),
				"global " + fn.Pkg().Name() + "." + fn.Name() + " call"})
		}
	case "os", "log", "log/slog", "net", "net/http":
		node.Facts = append(node.Facts, Fact{FactProcessIO, call.Pos(), "process-global I/O (" + fn.Pkg().Name() + "." + fn.Name() + ")"})
	case "fmt":
		if fn.Name() == "Print" || fn.Name() == "Println" || fn.Name() == "Printf" {
			node.Facts = append(node.Facts, Fact{FactProcessIO, call.Pos(), "process-global I/O (fmt." + fn.Name() + ")"})
		}
	}
	df.scanRandDraw(call, fn)
	df.scanEngineCall(call, fn)
}

// calleeOf resolves a call expression to the *types.Func it names, or
// nil (builtins, conversions, function-typed values).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Targets resolves a call site to the function nodes it may invoke.
// Static calls resolve to at most one node; interface dispatch resolves
// to the implementing-type set. Targets without bodies in the loaded
// packages (standard library) are omitted — their facts are attached at
// the call site by scanCall.
func (g *Graph) Targets(c Call) []*types.Func {
	if c.Callee != nil {
		if _, ok := g.Nodes[c.Callee]; ok {
			return []*types.Func{c.Callee}
		}
		return nil
	}
	return g.implementers(c.Iface)
}

// implementers returns the loaded methods that an interface-method call
// may dispatch to.
func (g *Graph) implementers(m *types.Func) []*types.Func {
	if out, ok := g.implCache[m]; ok {
		return out
	}
	ifaceT, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []*types.Func
	if ifaceT != nil {
		for _, named := range g.named {
			var impl types.Type
			switch {
			case types.Implements(named, ifaceT):
				impl = named
			case types.Implements(types.NewPointer(named), ifaceT):
				impl = types.NewPointer(named)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
			if mf, ok := obj.(*types.Func); ok {
				mf = canon(mf)
				if _, loaded := g.Nodes[mf]; loaded {
					out = append(out, mf)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	g.implCache[m] = out
	return out
}

// closure computes, for every node, the mask of fact kinds contained in
// or reachable from it. Tarjan's SCC algorithm collapses recursion; the
// masks then propagate in reverse topological order. staticOnly drops
// interface-dispatch edges, the policy determinism and maporder use:
// interface dispatch is the sanctioned attachment boundary.
func (g *Graph) closure(staticOnly bool) map[*types.Func]factMask {
	key := closureKey{staticOnly}
	if m, ok := g.closureCache[key]; ok {
		return m
	}
	// Iterative Tarjan over the node set.
	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	comp := map[*types.Func]int{}
	var stack, order []*types.Func
	next, ncomp := 0, 0

	var fns []*types.Func
	for fn := range g.Nodes {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	succ := func(fn *types.Func) []*types.Func {
		node := g.Nodes[fn]
		var out []*types.Func
		for _, c := range node.Calls {
			if staticOnly && c.Iface != nil {
				continue
			}
			out = append(out, g.Targets(c)...)
		}
		return out
	}

	type frame struct {
		fn   *types.Func
		succ []*types.Func
		i    int
	}
	var dfs []frame
	for _, root := range fns {
		if _, seen := index[root]; seen {
			continue
		}
		dfs = append(dfs[:0], frame{fn: root, succ: succ(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{fn: w, succ: succ(w)})
				} else if onStack[w] && low[f.fn] > index[w] {
					low[f.fn] = index[w]
				}
				continue
			}
			if low[f.fn] == index[f.fn] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					order = append(order, w)
					if w == f.fn {
						break
					}
				}
				ncomp++
			}
			v := f.fn
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].fn
				if low[p] > low[v] {
					low[p] = low[v]
				}
			}
		}
	}
	// order holds nodes in reverse topological order of components
	// (callees before callers), each component's members contiguous, so
	// one pass completes every component's mask before its callers read
	// it. Members read the mask only once their whole component is done:
	// a member listed before the one that calls out of the cycle reaches
	// what that call reaches too.
	masks := make(map[*types.Func]factMask, len(g.Nodes))
	compMask := make([]factMask, ncomp)
	for _, fn := range order {
		m := g.Nodes[fn].mask
		for _, w := range succ(fn) {
			m |= compMask[comp[w]]
		}
		compMask[comp[fn]] |= m
	}
	for _, fn := range order {
		masks[fn] = compMask[comp[fn]]
	}
	g.closureCache[key] = masks
	return masks
}

// Reaches reports whether the function contains, or transitively calls a
// function containing, a fact of the given kind.
func (g *Graph) Reaches(fn *types.Func, kind FactKind, staticOnly bool) bool {
	return g.closure(staticOnly)[canon(fn)].has(kind)
}

// WitnessPath returns a human-readable shortest call path from the
// function to a fact of the given kind: "a → b → c: <what>". It is only
// invoked for findings, so a per-call BFS is fine.
func (g *Graph) WitnessPath(fn *types.Func, kind FactKind, staticOnly bool) string {
	fn = canon(fn)
	masks := g.closure(staticOnly)
	type hop struct {
		fn   *types.Func
		prev int
	}
	queue := []hop{{fn, -1}}
	seen := map[*types.Func]bool{fn: true}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi].fn
		node := g.Nodes[cur]
		if node == nil {
			continue
		}
		for _, f := range node.Facts {
			if f.Kind != kind {
				continue
			}
			// Reconstruct the chain.
			var chain []string
			for i := qi; i >= 0; i = queue[i].prev {
				chain = append(chain, shortName(queue[i].fn))
			}
			for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
				chain[l], chain[r] = chain[r], chain[l]
			}
			pos := node.Pkg.Fset.Position(f.Pos)
			return fmt.Sprintf("%s: %s at %s:%d", strings.Join(chain, " → "), f.What, shortFile(pos.Filename), pos.Line)
		}
		for _, c := range node.Calls {
			if staticOnly && c.Iface != nil {
				continue
			}
			for _, t := range g.Targets(c) {
				if !seen[t] && masks[t].has(kind) {
					seen[t] = true
					queue = append(queue, hop{t, qi})
				}
			}
		}
	}
	return shortName(fn)
}

// FuncsOf returns the graph nodes declared in the given package, in
// source order.
func (g *Graph) FuncsOf(pkg *Package) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.Nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// shortName renders a function for path messages: pkg.Func or
// (pkg.Type).Method.
func shortName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + pkgName + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}

// shortFile trims a path to its last two elements for message brevity.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

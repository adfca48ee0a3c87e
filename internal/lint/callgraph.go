package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Package-level call graph. The reachability analyzers (hotalloc's
// "reachable from a grain loop", faulterr's "reachable from a boundary
// function") need to follow calls out of the function under inspection.
// BuildCallGraph resolves, within one package:
//
//   - direct calls to package-level functions and methods;
//   - interface method calls, conservatively fanned out to every
//     same-package concrete type whose method set satisfies the
//     interface (this is how a call through bfs.Engine reaches the
//     serial/top-down/bottom-up kernels);
//   - function-literal containment: an enclosing function "calls" every
//     literal it defines, because in this codebase literals are grain
//     callbacks and deferred closers that run on the enclosing
//     function's schedule.
//
// Cross-package edges are not modeled: analyzers run per package, and
// the properties being checked (allocation discipline, error typing)
// are package-local contracts.

// CGNode is one function in the call graph: either a declared function
// or method (Decl != nil) or a function literal (Lit != nil).
type CGNode struct {
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Func is the declared object; nil for literals.
	Func *types.Func
	// Name labels the node in diagnostics: the declared name, or
	// "func@file:line" for literals.
	Name string
	// Callees are the graph edges, deduplicated, in discovery order.
	Callees []*CGNode

	calleeSet map[*CGNode]bool
}

// Body returns the node's function body (nil for body-less decls).
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// CallGraph holds every function and function literal of one package.
type CallGraph struct {
	// Nodes is keyed by the function's syntax (*ast.FuncDecl or
	// *ast.FuncLit).
	Nodes map[ast.Node]*CGNode
	// byObj finds a declared function's node from its types object.
	byObj map[*types.Func]*CGNode
}

// NodeFor returns the graph node for a *ast.FuncDecl or *ast.FuncLit,
// or nil.
func (g *CallGraph) NodeFor(fn ast.Node) *CGNode { return g.Nodes[fn] }

// NodeForFunc returns the node of a declared function object, or nil.
func (g *CallGraph) NodeForFunc(fn *types.Func) *CGNode { return g.byObj[fn] }

func (n *CGNode) addCallee(c *CGNode) {
	if c == nil || c == n {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*CGNode]bool)
	}
	if n.calleeSet[c] {
		return
	}
	n.calleeSet[c] = true
	n.Callees = append(n.Callees, c)
}

// BuildCallGraph constructs the package call graph from the pass's
// syntax and type information.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		Nodes: make(map[ast.Node]*CGNode),
		byObj: make(map[*types.Func]*CGNode),
	}

	// Register every declared function and every literal first, so edge
	// resolution can always find its target.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			node := &CGNode{Decl: fd, Name: funcDeclName(fd)}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				node.Func = obj
				g.byObj[obj] = node
			}
			g.Nodes[fd] = node
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				pos := pass.Fset.Position(lit.Pos())
				g.Nodes[lit] = &CGNode{
					Lit:  lit,
					Name: fmt.Sprintf("func@%s:%d", pos.Filename, pos.Line),
				}
			}
			return true
		})
	}

	impls := buildImplIndex(pass)

	// Resolve edges. Each node owns exactly the statements of its body
	// minus nested literal bodies (those belong to the literal's node).
	for syntax, node := range g.Nodes {
		body := node.Body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok && n != syntax {
				node.addCallee(g.Nodes[lit]) // containment edge
				return false                 // literal's calls are its own
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, target := range resolveCall(pass, g, impls, call) {
				node.addCallee(target)
			}
			return true
		})
	}
	return g
}

// Reachable returns the set of nodes reachable from roots (inclusive).
func (g *CallGraph) Reachable(roots []*CGNode) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var stack []*CGNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.Callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// funcDeclName renders "Name" or "(Recv).Name" for diagnostics.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			return "(" + id.Name + ")." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// implIndex maps an interface method to the same-package concrete
// methods that can stand behind it.
type implIndex struct {
	// methods maps interface *types.Func to the implementing methods.
	methods map[*types.Func][]*types.Func
}

// buildImplIndex enumerates the package's named types once and, for
// every interface type used in the package (whether declared here or
// imported, e.g. obs.Recorder), records which local concrete types
// implement it and with which methods.
func buildImplIndex(pass *Pass) *implIndex {
	idx := &implIndex{methods: make(map[*types.Func][]*types.Func)}
	if pass.Pkg == nil {
		return idx
	}

	// Concrete named types declared in this package.
	var concrete []types.Type
	scope := pass.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		concrete = append(concrete, named)
	}

	// Interface method objects actually referenced by this package's
	// code: every Uses entry that is a method of an interface.
	for _, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if !types.IsInterface(sig.Recv().Type()) {
			continue
		}
		if _, done := idx.methods[fn]; done {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		var impls []*types.Func
		for _, ct := range concrete {
			var recv types.Type
			switch {
			case types.Implements(ct, iface):
				recv = ct
			case types.Implements(types.NewPointer(ct), iface):
				recv = types.NewPointer(ct)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, fn.Name())
			if m, ok := obj.(*types.Func); ok {
				impls = append(impls, m)
			}
		}
		idx.methods[fn] = impls
	}
	return idx
}

// resolveCall returns the graph nodes a call expression may invoke.
func resolveCall(pass *Pass, g *CallGraph, impls *implIndex, call *ast.CallExpr) []*CGNode {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// Interface dispatch: fan out to every local implementation.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		var out []*CGNode
		for _, m := range impls.methods[fn] {
			if n := g.byObj[m]; n != nil {
				out = append(out, n)
			}
		}
		return out
	}
	// Direct call (function or concrete method) into this package.
	if n := g.byObj[fn]; n != nil {
		return []*CGNode{n}
	}
	return nil
}

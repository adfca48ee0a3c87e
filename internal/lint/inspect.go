package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// inspectAll walks every file in the pass in preorder. Returning false
// from fn prunes the subtree, matching ast.Inspect.
func inspectAll(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}

// capturedVar reports whether id, appearing inside fn, resolves to a
// variable declared *outside* fn — a closure capture. Struct fields
// and package-level constants are not captures.
func capturedVar(pass *Pass, fn *ast.FuncLit, id *ast.Ident) (*types.Var, bool) {
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil, false
	}
	if v.Pos() == token.NoPos {
		return nil, false
	}
	if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() {
		return nil, false // declared inside the closure (incl. params)
	}
	return v, true
}

// sharedVar reports whether id, the base of an lvalue inside fn, names
// state that other goroutines running fn reach: a captured variable,
// or a pointer parameter. The second is how a fan-out hands every
// worker one shared argument block (the bfs kernels' *levelArgs), so a
// write through it is as shared as a write to a capture, though fn
// captures nothing. captured tells the two apart for diagnostics.
func sharedVar(pass *Pass, fn *ast.FuncLit, id *ast.Ident) (v *types.Var, captured, ok bool) {
	if v, ok := capturedVar(pass, fn, id); ok {
		return v, true, true
	}
	v, isVar := pass.ObjectOf(id).(*types.Var)
	if !isVar || !isParam(pass, fn, v) {
		return nil, false, false
	}
	if _, ptr := v.Type().Underlying().(*types.Pointer); !ptr {
		return nil, false, false
	}
	return v, false, true
}

// isParam reports whether v is one of fn's parameters.
func isParam(pass *Pass, fn *ast.FuncLit, v *types.Var) bool {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if pass.ObjectOf(name) == v {
				return true
			}
		}
	}
	return false
}

// rootExpr descends through index, slice, star, paren, and selector
// expressions to the base identifier of an lvalue, e.g. locals in
// locals[worker] or r in r.Parent[v]. Returns nil if the base is not a
// plain identifier.
func rootExpr(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSliceOrMap reports whether t (after unwrapping named types and
// pointers) is a slice, map, or array type — the shared-container
// types sharedwrite polices.
func isSliceOrMap(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Array:
		return true
	case *types.Pointer:
		return isSliceOrMap(u.Elem())
	default:
		return false
	}
}

// calleeName returns the qualified name of a call's callee: "pkg.Func"
// for package selectors, "recv.Method" method calls collapse to just
// the method name with recvQual true, and plain "fn" for identifiers.
func calleeName(pass *Pass, call *ast.CallExpr) (name string, isPkgFunc bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, false
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
				return id.Name + "." + fun.Sel.Name, true
			}
		}
		return fun.Sel.Name, false
	default:
		return "", false
	}
}

// atomicCallArg returns the &-operand expression of a sync/atomic
// package call like atomic.AddInt64(&x, 1) or atomic.LoadUint64(&w),
// or nil if call is not one.
func atomicCallArg(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pkg.Imported().Path() != "sync/atomic" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil
	}
	return unary.X
}

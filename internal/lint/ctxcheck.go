package lint

import (
	"go/ast"
	"go/types"
)

// CtxCheck flags loops that can run unboundedly inside context-aware
// functions without ever consulting the context. The execution stack's
// cancellation contract (bfs.Run) promises that a cancel is
// honored within one level or grain boundary; that promise holds only
// if every long-running loop in a ctx-taking function has a
// cancellation point. The suspicious shapes are
//
//   - condition-only loops (`for len(queue) > 0 { ... }`) — the
//     level-loop shape, whose trip count is data-dependent;
//   - loops that spawn goroutines (`go` inside the body) — fan-out
//     that outlives a cancel unless the workers watch the context;
//   - loops that call a parallel runner (parallelGrains, RunMany*).
//
// A loop is fine if anything in it (condition or body, including
// nested closures) references a context.Context value or a done
// channel (<-chan struct{}, the hoisted ctx.Done() idiom). Loops that
// are provably short or guarded elsewhere can be annotated with
// //lint:ctx-ok and a rationale.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc: "flags unbounded or goroutine-spawning loops in context-aware functions that never " +
		"consult the context; suppress with //lint:ctx-ok",
	Run: runCtxCheck,
}

func runCtxCheck(pass *Pass) error {
	inspectAll(pass, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var ftype *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body, ftype = fn.Body, fn.Type
		case *ast.FuncLit:
			body, ftype = fn.Body, fn.Type
		default:
			return true
		}
		if body == nil || !hasContextParam(pass, ftype) {
			return true
		}
		checkCtxLoops(pass, body)
		return true
	})
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isDoneChannel reports whether t is a receive-only struct{} channel —
// the type of ctx.Done(), commonly hoisted into a local before a loop.
func isDoneChannel(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() != types.RecvOnly {
		return false
	}
	s, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}

func hasContextParam(pass *Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkCtxLoops walks one function body. Nested function literals are
// not descended into: a literal that itself takes a context gets its
// own visit, and one that does not is outside the rule — its caller,
// not this function, owns its cancellation discipline.
func checkCtxLoops(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if shape := suspiciousLoopShape(pass, loop); shape != "" && !referencesContext(pass, loop) {
			pass.Reportf(loop.For,
				"%s in context-aware function never consults the context — add a cancellation "+
					"point (ctx.Err() or Done()) or annotate //lint:ctx-ok", shape)
		}
		return true
	})
}

// suspiciousLoopShape classifies the loop, returning "" when it is not
// a cancellation-point candidate.
func suspiciousLoopShape(pass *Pass, loop *ast.ForStmt) string {
	spawns, fansOut := false, false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			spawns = true
		case *ast.CallExpr:
			if name, _ := calleeName(pass, x); isParallelRunner(name) {
				fansOut = true
			}
		}
		return true
	})
	switch {
	case spawns:
		return "goroutine-spawning loop"
	case fansOut:
		return "parallel fan-out loop"
	case loop.Init == nil && loop.Post == nil && loop.Cond != nil:
		return "unbounded condition-only loop"
	default:
		return ""
	}
}

// referencesContext reports whether any expression in the loop
// (condition or body, nested closures included) is a context.Context
// value or a hoisted done channel.
func referencesContext(pass *Pass, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(id)
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if isContextType(v.Type()) || isDoneChannel(v.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

package lint

import (
	"go/ast"
	"go/types"
)

// GrainLoop flags parallelGrains callbacks that carry state between
// grain invocations through captured scalars, or through scalar fields
// of a shared argument block (a pointer parameter, as the bfs kernels'
// *levelArgs). The callback runs concurrently on every worker: a
// captured counter updated with `total += ...`, a field bumped with
// `a.total++`, or a flag set with `done = true` races with every other
// worker. The safe idioms are an atomic (the kernels'
// foundTotal.Add pattern), a per-worker shard reduced after the wait,
// or — for genuinely single-threaded runners — a //lint:grain-ok
// annotation stating why only one goroutine executes the callback.
//
// Container writes are sharedwrite's jurisdiction; grainloop owns the
// scalar accumulator shape, which sharedwrite deliberately ignores.
var GrainLoop = &Analyzer{
	Name: "grainloop",
	Doc: "flags parallelGrains callbacks that write captured or shared-argument scalar state " +
		"(loop-carried accumulators) without synchronization; suppress with //lint:grain-ok",
	Run: runGrainLoop,
}

func runGrainLoop(pass *Pass) error {
	inspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := calleeName(pass, call)
		if !isParallelRunner(name) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				checkGrainCallback(pass, lit)
			}
		}
		return true
	})
	return nil
}

// isScalar reports whether t is a plain value type whose concurrent
// mutation is a race with no container-level escape hatch.
func isScalar(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsNumeric|types.IsBoolean|types.IsString) != 0
}

func checkGrainCallback(pass *Pass, lit *ast.FuncLit) {
	const fix = " — loop-carried state shared across workers; " +
		"use sync/atomic, a per-worker shard, or annotate //lint:grain-ok"
	report := func(lhs ast.Expr) {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, captured := capturedVar(pass, lit, x)
			if captured && isScalar(v.Type()) {
				pass.Reportf(lhs.Pos(), "grain callback writes captured scalar %q"+fix, x.Name)
			}
		case *ast.SelectorExpr:
			id := rootExpr(x)
			if id == nil || !isScalar(pass.TypeOf(x)) {
				return
			}
			if _, _, shared := sharedVar(pass, lit, id); shared {
				pass.Reportf(lhs.Pos(), "grain callback writes shared scalar %q through %q"+fix, x.Sel.Name, id.Name)
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(x.X)
		}
		return true
	})
}

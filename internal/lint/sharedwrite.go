package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SharedWrite flags writes to slices, maps, and arrays captured by
// goroutine closures — the exact shape of the bug that silently
// corrupts a BFS parent tree: two workers writing parents[v] without a
// claim. A write is accepted when the analyzer can see the discipline
// that makes it safe:
//
//   - it is guarded by winning an atomic claim, i.e. it sits in the
//     body of `if x.SetAtomic(...)` or `if atomic.CompareAndSwap*(...)`
//     (the top-down kernels' pattern: the CAS winner owns the slot);
//   - it is a per-worker shard, i.e. the element index is the
//     closure's own worker parameter, its first integer parameter
//     (locals[worker] = ...);
//   - it is annotated //lint:shared-ok with a human-reviewed rationale
//     (the bottom-up kernel's pattern: vertex ranges are disjoint by
//     construction, which no local analysis can prove).
//
// Shared means captured, or reached through a pointer parameter: the
// bfs fan-out passes its grain callback a *levelArgs that every worker
// shares, so `a.r.Parent[v] = u` there is policed like a write to a
// captured parent slice.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc: "flags unsynchronized writes to slices/maps captured by goroutine closures; " +
		"allowed via atomic claim guards, per-worker shards, or //lint:shared-ok",
	Run: runSharedWrite,
}

// parallelRunners names the functions whose func-literal arguments run
// concurrently on worker goroutines. parallelGrains is this codebase's
// fan-out primitive and RunMany its batched multi-root driver;
// anything spelled like a parallel driver is treated the same so
// future runners are covered by default.
func isParallelRunner(name string) bool {
	if name == "parallelGrains" {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "parallel") ||
		strings.Contains(lower, "concurrent") ||
		strings.Contains(lower, "runmany")
}

// claimMethods are methods whose success return implies exclusive
// ownership of the claimed slot.
func isClaimCall(pass *Pass, call *ast.CallExpr) bool {
	name, isPkg := calleeName(pass, call)
	if isPkg {
		return strings.HasPrefix(name, "atomic.CompareAndSwap")
	}
	return name == "SetAtomic" || strings.HasPrefix(name, "CompareAndSwap") || name == "TryClaim"
}

func runSharedWrite(pass *Pass) error {
	for _, lit := range goroutineClosures(pass) {
		checkClosureWrites(pass, lit)
	}
	return nil
}

// goroutineClosures finds every func literal that escapes onto another
// goroutine: `go func(){...}()` and literals passed to a parallel
// runner.
func goroutineClosures(pass *Pass) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := make(map[*ast.FuncLit]bool)
	add := func(lit *ast.FuncLit) {
		if lit != nil && !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	inspectAll(pass, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				add(lit)
			}
		case *ast.CallExpr:
			name, _ := calleeName(pass, x)
			if isParallelRunner(name) {
				for _, arg := range x.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						add(lit)
					}
				}
			}
		}
		return true
	})
	return out
}

// checkClosureWrites reports unsafe container writes inside one
// goroutine closure.
func checkClosureWrites(pass *Pass, lit *ast.FuncLit) {
	guarded := claimGuardedRanges(pass, lit)
	inGuard := func(pos token.Pos) bool {
		for _, r := range guarded {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	report := func(lhs ast.Expr) {
		id := rootExpr(lhs)
		if id == nil {
			return
		}
		v, captured, shared := sharedVar(pass, lit, id)
		if !shared {
			return
		}
		// Only container writes: either indexing into a captured
		// container, or overwriting a captured container header.
		idx, isIndex := ast.Unparen(lhs).(*ast.IndexExpr)
		if isIndex {
			if !isSliceOrMap(pass.TypeOf(idx.X)) {
				return
			}
			if isWorkerShardIndex(pass, lit, idx.Index) {
				return
			}
		} else if !isSliceOrMap(v.Type()) {
			return
		}
		if inGuard(lhs.Pos()) {
			return
		}
		what := "write to captured %q"
		if !captured {
			what = "write through shared parameter %q"
		}
		pass.Reportf(lhs.Pos(),
			what+" inside a goroutine closure without an atomic claim or per-worker shard; "+
				"synchronize it or annotate //lint:shared-ok with the invariant that makes it safe", id.Name)
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

// claimGuardedRanges returns the position ranges of if-bodies whose
// condition wins an atomic claim: writes inside them have exclusive
// ownership of the claimed slot.
func claimGuardedRanges(pass *Pass, lit *ast.FuncLit) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		hasClaim := false
		ast.Inspect(ifStmt.Cond, func(cn ast.Node) bool {
			if call, ok := cn.(*ast.CallExpr); ok && isClaimCall(pass, call) {
				hasClaim = true
			}
			return !hasClaim
		})
		if hasClaim {
			out = append(out, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
	return out
}

// isWorkerShardIndex reports whether the index expression is the
// closure's own first integer parameter — the per-worker shard idiom
// locals[worker] where each goroutine owns exactly one slot. A
// callback that takes a shared argument block first, (a, worker,
// start, end), still owns the slot of its worker.
func isWorkerShardIndex(pass *Pass, lit *ast.FuncLit, index ast.Expr) bool {
	id, ok := ast.Unparen(index).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	for _, field := range lit.Type.Params.List {
		if b, ok := pass.TypeOf(field.Type).Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			continue
		}
		return len(field.Names) > 0 && pass.ObjectOf(field.Names[0]) == obj
	}
	return false
}

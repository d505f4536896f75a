// Package nakedgo enforces goroutine ownership: library code must not
// launch untracked goroutines. A `go` statement is accepted only when the
// goroutine's completion is observable — its body defers Done on a
// sync.WaitGroup, or the launch is immediately preceded by a WaitGroup Add
// call (the Add-then-go idiom used by the executor's scheduler and the wire
// server). Anything else is a goroutine whose lifetime nothing owns: it
// outlives Close, races test teardown, and leaks under -race.
//
// Exempt: tests and package main (process-lifetime goroutines in a
// command's main are owned by the process).
package nakedgo

import (
	"go/ast"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces tracked goroutine launches.
var Analyzer = &analysis.Analyzer{
	Name: "nakedgo",
	Doc: "no untracked `go` statements in library code; track goroutines with a " +
		"sync.WaitGroup (Add before launch, Done in the body) or run work through the scheduler",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				g, ok := stmt.(*ast.GoStmt)
				if !ok {
					continue
				}
				if bodyCallsWaitGroupDone(pass, g) || precededByWaitGroupAdd(pass, block.List, i) {
					continue
				}
				pass.Reportf(g.Pos(), "untracked goroutine; pair it with a sync.WaitGroup "+
					"(Add before go, Done in the body) so a caller owns its lifetime")
			}
			return true
		})
	}
	return nil
}

// bodyCallsWaitGroupDone reports whether the launched function is a literal
// whose body calls Done on a sync.WaitGroup (normally `defer wg.Done()`).
func bodyCallsWaitGroupDone(pass *analysis.Pass, g *ast.GoStmt) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(pass, call, "Done") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// precededByWaitGroupAdd reports whether the statement immediately before
// block.List[i] is a wg.Add(...) call — the Add-then-go idiom, where Done
// lives inside the launched method.
func precededByWaitGroupAdd(pass *analysis.Pass, stmts []ast.Stmt, i int) bool {
	if i == 0 {
		return false
	}
	expr, ok := stmts[i-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	return ok && isWaitGroupMethod(pass, call, "Add")
}

// isWaitGroupMethod reports whether call invokes the named method on a
// sync.WaitGroup receiver.
func isWaitGroupMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	return recv != nil && recv.Obj().Name() == "WaitGroup" &&
		recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "sync"
}

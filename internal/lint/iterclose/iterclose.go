// Package iterclose enforces the set.Iter lifecycle: every iterator
// obtained from a call — a source select stream, a merge operator, a
// wrapped set — is closed on all paths out of the function that opened it.
// An unclosed iterator leaks its upstream resources: a streaming select holds
// a scheduler-visible exchange open, and an unclosed merge never releases its
// inputs, so the streaming executor's short-circuit cancellation cannot
// propagate.
//
// Accepted shapes, in order of preference:
//
//	it, err := source.OpenSelectStream(ctx, src, c, batch)
//	if err != nil {
//		return err
//	}
//	defer it.Close()                 // deferred — covers every path
//
//	it.Close()                       // explicit — a Close must precede
//	return ...                       // every return after the open
//
// An iterator assigned to `_`, which can never be closed, is always flagged.
// An iterator that escapes the function (passed to another call, returned,
// reassigned, or stored in a composite literal) transfers ownership and is
// not checked: a merge constructor or Collect closes its inputs through its
// own Close.
package iterclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces set.Iter open/Close pairing.
var Analyzer = &analysis.Analyzer{
	Name: "iterclose",
	Doc:  "every set.Iter obtained from a call must be closed on all paths, normally via defer",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Every function body, declarations and literals, is analyzed on its
		// own: an iterator belongs to the innermost function opening it.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					check(pass, n.Body)
				}
			case *ast.FuncLit:
				check(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// opensIter reports which results of call are a set.Iter, when their count
// matches the assignment's arity: a single Iter assigned 1:1 and an (Iter,
// error) pair destructured into two variables both match.
func opensIter(info *types.Info, call *ast.CallExpr, arity int) (out []int) {
	results := []types.Type{info.TypeOf(call)}
	if t, ok := results[0].(*types.Tuple); ok {
		results = results[:0]
		for i := 0; i < t.Len(); i++ {
			results = append(results, t.At(i).Type())
		}
	}
	if len(results) != arity {
		return nil
	}
	for i, t := range results {
		if named, ok := t.(*types.Named); ok {
			if obj := named.Obj(); obj.Name() == "Iter" && obj.Pkg() != nil && obj.Pkg().Path() == "fusionq/internal/set" {
				out = append(out, i)
			}
		}
	}
	return out
}

// state tracks one opened iterator within a function.
type state struct {
	openPos  token.Pos
	closePos []token.Pos // non-deferred closes
	deferred bool
	escaped  bool
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	open := map[types.Object]*state{}
	// Pass 1: opens at this function's level (nested literals are their own
	// functions).
	walkShallow(body, func(n ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range opensIter(info, call, len(assign.Lhs)) {
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(id.Pos(), "iterator discarded at open; it can never be closed")
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if st, ok := open[obj]; !ok {
				open[obj] = &state{openPos: assign.Pos()}
			} else if assign.Pos() < st.openPos {
				st.openPos = assign.Pos() // re-opened in a loop: keep the earliest
			}
		}
	})
	if len(open) == 0 {
		return
	}
	tracked := func(expr ast.Expr) *state {
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
			return open[info.Uses[id]] // a nil object is not a key
		}
		return nil
	}
	closed := func(call *ast.CallExpr) *state {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
			return tracked(sel.X)
		}
		return nil
	}
	escape := func(exprs ...ast.Expr) {
		for _, e := range exprs {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if st := tracked(e); st != nil {
				st.escaped = true
			}
		}
	}
	// Pass 2: closes, defers and escapes anywhere within the body (a deferred
	// cleanup closure legitimately closes its enclosing function's iterator).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// The deferred call itself, or any call in a deferred closure.
			if st := closed(n.Call); st != nil {
				st.deferred = true
			}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if st := closed(call); st != nil {
							st.deferred = true
						}
					}
					return true
				})
			}
		case *ast.CallExpr:
			if st := closed(n); st != nil {
				st.closePos = append(st.closePos, n.Pos())
			} else {
				escape(n.Args...) // as an argument, not as the receiver
			}
		case *ast.ReturnStmt:
			escape(n.Results...)
		case *ast.AssignStmt:
			escape(n.Rhs...)
		case *ast.CompositeLit:
			escape(n.Elts...) // the slice, map or struct owns it
		}
		return true
	})
	// Pass 3: verdicts.
	for _, st := range open {
		if st.escaped || st.deferred {
			continue
		}
		if len(st.closePos) == 0 {
			pass.Reportf(st.openPos, "iterator opened here is never closed; Close it (normally via defer)")
			continue
		}
		walkShallow(body, func(n ast.Node) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || ret.Pos() <= st.openPos {
				return
			}
			for _, c := range st.closePos {
				if c < ret.Pos() {
					return
				}
			}
			pass.Reportf(ret.Pos(), "return may leave the iterator opened at %s unclosed; defer its Close",
				pass.Fset.Position(st.openPos))
		})
	}
}

// walkShallow visits body without descending into nested function literals.
func walkShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

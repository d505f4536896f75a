// Package pairing is the analysis spanbalance and iterclose both are: a
// value obtained from a call at a function's own level must have its closing
// method called on every path out of that function. A Pair says which calls
// open such a value, what its closing method is named and what the findings
// call things; Analyzer builds the check.
//
// Accepted shapes, in order of preference (with a span's words):
//
//	ctx, sp := obs.StartSpan(ctx, kind, name)
//	defer sp.End(nil)                      // deferred — covers every path
//
//	sp.End(err)                            // explicit — a close must precede
//	return ...                             // every return after the open
//
// A value assigned to `_`, which can never be closed, is always flagged. A
// value that escapes the function (passed to another call, returned,
// reassigned, or stored in a composite literal) transfers ownership and is
// not checked.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"

	"fusionq/internal/lint/analysis"
)

// Pair is one row: what is opened, how it is closed, and the findings' words.
type Pair struct {
	// Opens returns which of the arity variables a call's results are
	// assigned to hold a value to be closed.
	Opens func(info *types.Info, call *ast.CallExpr, arity int) []int
	// Close is the closing method's name: "End", "Close".
	Close string
	// Noun names the value ("span"); Open and Opened are the verb that
	// obtains it ("start", "started"), Closed the one that releases it
	// ("ended").
	Noun, Open, Opened, Closed string
}

// Analyzer returns the analyzer that checks p under the given name.
func Analyzer(name, doc string, p Pair) *analysis.Analyzer {
	return &analysis.Analyzer{Name: name, Doc: doc, Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			if pass.IsTestFile(f) {
				continue
			}
			// Every function body, declarations and literals, is analyzed on
			// its own: a value belongs to the innermost function opening it.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						p.check(pass, n.Body)
					}
				case *ast.FuncLit:
					p.check(pass, n.Body)
				}
				return true
			})
		}
		return nil
	}}
}

// state tracks one opened variable within a function.
type state struct {
	openPos  token.Pos
	closePos []token.Pos // non-deferred closes
	deferred bool
	escaped  bool
}

func (p Pair) check(pass *analysis.Pass, body *ast.BlockStmt) {
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
		for _, i := range p.Opens(info, call, len(assign.Lhs)) {
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(id.Pos(), "%s discarded at %s; it can never be %s", p.Noun, p.Open, p.Closed)
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
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == p.Close {
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
	// cleanup closure legitimately closes its enclosing function's value).
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
			pass.Reportf(st.openPos, "%s %s here is never %s; %s it (normally via defer)", p.Noun, p.Opened, p.Closed, p.Close)
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
			pass.Reportf(ret.Pos(), "return may leave the %s %s at %s un%s; defer its %s",
				p.Noun, p.Opened, pass.Fset.Position(st.openPos), p.Closed, p.Close)
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

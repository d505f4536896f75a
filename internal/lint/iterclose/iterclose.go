// Package iterclose enforces the set.Iter lifecycle: every iterator
// obtained from a call — a source select stream, a merge operator, a
// wrapped set — is closed on all paths out of the function that opened it
// (the pairing analysis, with any call returning a set.Iter and Close). An
// unclosed iterator leaks its upstream resources: a streaming select holds a
// scheduler-visible exchange open, and an unclosed merge never releases its
// inputs, so the streaming executor's short-circuit cancellation cannot
// propagate. An iterator passed to a merge constructor or Collect escapes:
// they close their inputs through their own Close.
package iterclose

import (
	"go/ast"
	"go/types"

	"fusionq/internal/lint/pairing"
)

// Analyzer enforces set.Iter open/Close pairing.
var Analyzer = pairing.Analyzer("iterclose",
	"every set.Iter obtained from a call must be closed on all paths, normally via defer",
	pairing.Pair{Opens: opensIter, Close: "Close", Noun: "iterator", Open: "open", Opened: "opened", Closed: "closed"})

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

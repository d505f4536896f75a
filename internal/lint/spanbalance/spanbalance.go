// Package spanbalance enforces obs span pairing: every span returned by
// obs.StartSpan is ended on all paths out of the function that started it
// (the pairing analysis, with StartSpan and End). An unended span renders as
// permanently in-flight (zero duration) in every trace export and quietly
// corrupts the per-phase latency attribution the cost experiments compare
// against estimates.
package spanbalance

import (
	"go/ast"
	"go/types"

	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/pairing"
)

// Analyzer enforces StartSpan/End pairing.
var Analyzer = pairing.Analyzer("spanbalance",
	"every obs.StartSpan must be balanced by End on all paths, normally via defer",
	pairing.Pair{Opens: startsSpan, Close: "End", Noun: "span", Open: "start", Opened: "started", Closed: "ended"})

// startsSpan reports the span of a `ctx, sp := obs.StartSpan(...)`.
func startsSpan(info *types.Info, call *ast.CallExpr, arity int) []int {
	fn := analysis.CalleeFunc(info, call)
	if arity != 2 || fn == nil || fn.Name() != "StartSpan" || fn.Pkg() == nil || fn.Pkg().Path() != "fusionq/internal/obs" {
		return nil
	}
	return []int{1}
}

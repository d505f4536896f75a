// Package lint assembles the fqlint analyzer suite: the custom go/analysis-
// style checkers that mechanically enforce this codebase's query-lifecycle,
// observability and error-handling contracts (DESIGN.md §10). The driver in
// cmd/fqlint loads the packages and runs them.
package lint

import (
	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/chandiscipline"
	"fusionq/internal/lint/ctxfirst"
	"fusionq/internal/lint/iterclose"
	"fusionq/internal/lint/metricnames"
	"fusionq/internal/lint/nakedgo"
	"fusionq/internal/lint/spanbalance"
	"fusionq/internal/lint/wrapcheck"
)

// All returns the full analyzer suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxfirst.Analyzer,
		metricnames.Analyzer,
		wrapcheck.Analyzer,
		spanbalance.Analyzer,
		iterclose.Analyzer,
		nakedgo.Analyzer,
		chandiscipline.Analyzer,
	}
}

// Package lint assembles the fqlint analyzer suite: the custom go/analysis-
// style checkers that mechanically enforce this codebase's context, metric,
// error-handling, iterator and goroutine contracts where no test, vet check
// or runtime check does (DESIGN.md §10's seeded audit says why each stays).
// The driver in cmd/fqlint loads the packages and runs them.
package lint

import (
	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/chandiscipline"
	"fusionq/internal/lint/ctxfirst"
	"fusionq/internal/lint/iterclose"
	"fusionq/internal/lint/metricnames"
	"fusionq/internal/lint/nakedgo"
	"fusionq/internal/lint/wrapcheck"
)

// All returns the full analyzer suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxfirst.Analyzer,
		metricnames.Analyzer,
		wrapcheck.Analyzer,
		iterclose.Analyzer,
		nakedgo.Analyzer,
		chandiscipline.Analyzer,
	}
}

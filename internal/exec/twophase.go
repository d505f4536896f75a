package exec

import (
	"context"

	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// FetchAnswer implements the "second phase" of two-phase fusion-query
// processing (Section 1): once phase one has identified the matching items,
// fetch the full records of those entities from every source, all sources
// at once. It is the records round of a plan.FetchRecords plan, outside any
// run's accounting. The returned relation holds the sources' tuples for the
// answer items, source by source.
func FetchAnswer(ctx context.Context, answer set.Set, sources []source.Source) (*relation.Relation, error) {
	names := make([]string, len(sources))
	for j, src := range sources {
		names[j] = src.Name()
	}
	r := (&Executor{Sources: sources}).newRun(&plan.Plan{Sources: names, Records: plan.FetchRecords})
	r.res.Answer = answer
	return r.collectRecords(ctx, make([]queryStats, len(sources)))
}

package exec

import (
	"context"
	"fmt"

	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// FetchAnswer implements the "second phase" of two-phase fusion-query
// processing (Section 1): once phase one has identified the matching items,
// fetch the full records of those entities from every source, all sources
// at once. The returned relation holds the union of the sources' tuples for
// the answer items.
func FetchAnswer(ctx context.Context, answer set.Set, sources []source.Source) (*relation.Relation, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("exec: no sources to fetch from")
	}
	schema := sources[0].Schema()
	out := relation.NewRelation(schema)
	if answer.IsEmpty() {
		return out, nil
	}
	for _, src := range sources {
		if !schema.Compatible(src.Schema()) {
			return nil, fmt.Errorf("exec: source %s schema %s incompatible with %s", src.Name(), src.Schema(), schema)
		}
	}
	// The sources are asked together; their tuples go in afterwards, in
	// source order, so the relation does not depend on who answered first.
	fetched := make([][]relation.Tuple, len(sources))
	err := Overlap(len(sources), func(j int) error {
		tuples, err := sources[j].Fetch(ctx, answer)
		if err != nil {
			return fmt.Errorf("exec: fetching from %s: %w", sources[j].Name(), err)
		}
		fetched[j] = tuples
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, tuples := range fetched {
		for _, t := range tuples {
			if err := out.Insert(t); err != nil {
				return nil, fmt.Errorf("exec: fetching from %s: %w", sources[j].Name(), err)
			}
		}
	}
	return out, nil
}

package exec

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// RunCombined executes the plan in "combined" mode — the Section 6
// extension beyond two-phase processing, where source queries return other
// attributes in addition to the merge attribute. The final round's
// selection and semijoin queries return the matching items' full records in
// the same exchange; after the answer is known, only the records not
// already shipped are fetched. The answer and the returned records are
// identical to Run followed by FetchAnswer; only the traffic schedule
// differs.
//
// The trade-off (quantified in experiment E13): combined mode avoids the
// per-source fetch round, but ships full records for the final round's
// whole result — a superset of the answer.
func (e *Executor) RunCombined(ctx context.Context, p *plan.Plan) (*Result, *relation.Relation, error) {
	r, err := e.planRun(p)
	if err != nil {
		return nil, nil, err
	}
	final := finalRoundCond(p)
	if final < 0 {
		return nil, nil, fmt.Errorf("exec: plan has no source queries to combine")
	}
	r.sink = &recordSink{final: final, bySource: map[int]map[string][]relation.Tuple{}}
	if err := r.execute(ctx); err != nil {
		// The partial result; no records were assembled.
		return r.res, nil, err
	}
	records, err := r.collectRecords(ctx)
	if err != nil {
		return r.res, nil, err
	}
	return r.res, records, nil
}

// finalRoundCond returns the condition index of the plan's last round: the
// Cond of the last source-query or local-selection step.
func finalRoundCond(p *plan.Plan) int {
	for k := len(p.Steps) - 1; k >= 0; k-- {
		s := p.Steps[k]
		if s.Kind == plan.KindSelect || s.Kind == plan.KindSemijoin || s.Kind == plan.KindLocalSelect {
			return s.Cond
		}
	}
	return -1
}

// recordSink is a combined run's record store: the select and semijoin
// bodies ask it whether a step belongs to the final round (condition
// final), and if so use the record-returning source operations and keep
// what they ship here, by source and item.
type recordSink struct {
	final int

	mu       sync.Mutex
	bySource map[int]map[string][]relation.Tuple
}

// wants reports whether step s should ship records. A nil sink — any run
// but a combined one — wants nothing.
func (k *recordSink) wants(s plan.Step) bool { return k != nil && s.Cond == k.final }

// add remembers the records a final-round query shipped from source j and
// returns their items. The tuples of a record-returning exchange arrive in
// no item order, so set.New sorts and deduplicates them.
func (k *recordSink) add(j int, tuples []relation.Tuple, mergeIdx int) set.Set {
	k.mu.Lock()
	defer k.mu.Unlock()
	byItem := k.bySource[j]
	if byItem == nil {
		byItem = map[string][]relation.Tuple{}
		k.bySource[j] = byItem
	}
	items := make([]string, len(tuples))
	for i, t := range tuples {
		items[i] = t[mergeIdx].Raw()
		byItem[items[i]] = append(byItem[items[i]], t)
	}
	return set.New(items...)
}

// collectRecords assembles the answer entities' full records: cached
// final-round records where available, loaded source contents for loaded
// sources, and targeted fetches for whatever is missing.
func (r *run) collectRecords(ctx context.Context) (*relation.Relation, error) {
	e, answer := r.e, r.res.Answer
	if len(e.Sources) == 0 {
		return nil, fmt.Errorf("exec: no sources")
	}
	out := relation.NewRelation(e.Sources[0].Schema())
	if answer.IsEmpty() {
		return out, nil
	}
	// Loaded sources' contents are already at the mediator.
	loadedOf := map[int]*relation.Relation{}
	for _, l := range r.loaded {
		loadedOf[l.source] = l.rel
	}
	// What a source still owes: the answer items its final-round records do
	// not cover. Every source that owes any is asked at once.
	fetched := make([][]relation.Tuple, len(e.Sources))
	err := Overlap(len(e.Sources), func(j int) error {
		if _, ok := loadedOf[j]; ok {
			return nil
		}
		var missing []string
		for _, item := range answer.Items() {
			if _, ok := r.sink.bySource[j][item]; !ok {
				missing = append(missing, item)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		tuples, err := e.Sources[j].Fetch(ctx, set.FromSorted(missing))
		if err != nil {
			return fmt.Errorf("exec: fetching remainder from %s: %w", e.Sources[j].Name(), err)
		}
		fetched[j] = tuples
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Source by source: the cached final-round records, the loaded contents
	// for what those do not cover, the fetched remainder.
	for j, src := range e.Sources {
		insert := func(tuples []relation.Tuple) error {
			for _, t := range tuples {
				if err := out.Insert(t); err != nil {
					return fmt.Errorf("exec: collecting records from %s: %w", src.Name(), err)
				}
			}
			return nil
		}
		byItem := r.sink.bySource[j]
		for item, tuples := range byItem {
			if !answer.Contains(item) {
				continue
			}
			if err := insert(tuples); err != nil {
				return nil, err
			}
		}
		if rel, ok := loadedOf[j]; ok {
			for _, item := range answer.Items() {
				if _, ok := byItem[item]; ok {
					continue
				}
				if err := insert(rel.RowsWithItem(item)); err != nil {
					return nil, err
				}
			}
		}
		if err := insert(fetched[j]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

package exec

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// recordSink is a records run's store of what its final round (condition
// final; -1 when the plan fetches every record) shipped: the select and
// semijoin bodies ask it whether a step is in that round, and if so use the
// record-returning source operations and keep what they ship here, by source
// and item.
type recordSink struct {
	final int

	mu       sync.Mutex
	bySource map[int]map[string][]relation.Tuple
}

// wants reports whether step s should ship records. A nil sink — a run that
// retrieves no records — wants nothing.
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

// records retrieves the answer entities' records once the answer is known,
// as the plan says (plan.Records): the final round's where it shipped them,
// loaded sources' contents, and one fetch at once from every other source
// that still owes answer items. The round is charged like a step, the one
// after the plan's last: in the run's ledger, counters, metrics and trace.
func (r *run) records(ctx context.Context) error {
	if r.p.Records == plan.NoRecords {
		return nil
	}
	idx, text := len(r.p.Steps), "records of "+r.p.Result
	sctx, span := obs.StartSpan(ctx, obs.KindStep, text)
	if r.ledger != nil {
		sctx = netsim.WithLedger(sctx, r.ledger, idx)
	}
	costs := make([]queryStats, len(r.e.Sources))
	rel, err := r.collectRecords(sctx, costs)
	if err != nil {
		err = fmt.Errorf("exec: %s: %w", text, err)
	}
	span.End(err)
	r.settle()
	tr, met := StepTrace{Index: idx, Text: text}, obs.Meter(ctx)
	for j, c := range costs {
		met.Counter(obs.MSourceQueries, "source", r.p.Sources[j]).Add(int64(c.queries))
		met.Counter(obs.MRetries, "source", r.p.Sources[j]).Add(int64(c.retries))
		tr.Queries, tr.Retries, tr.Errors = tr.Queries+c.queries, tr.Retries+c.retries, tr.Errors+c.errors
	}
	r.res.SourceQueries += tr.Queries
	r.res.Retries += tr.Retries
	if err != nil {
		r.res.FailedStep, tr.Err = idx, err.Error()
	} else {
		r.res.Records, tr.OutItems = rel, rel.Len()
	}
	r.res.Trace = append(r.res.Trace, tr)
	return err
}

// collectRecords assembles the records; costs[j] accounts source j's fetch.
func (r *run) collectRecords(ctx context.Context, costs []queryStats) (*relation.Relation, error) {
	e, answer := r.e, r.res.Answer
	if len(e.Sources) == 0 {
		return nil, fmt.Errorf("no sources")
	}
	loadedOf := make([]*relation.Relation, len(e.Sources))
	for v, rel := range r.loaded {
		if rel != nil {
			loadedOf[r.p.Steps[v].Source] = rel
		}
	}
	fetched := make([][]relation.Tuple, len(e.Sources))
	err := Overlap(len(e.Sources), func(j int) error {
		var missing []string
		for _, item := range answer.Items() {
			if _, ok := r.sink.bySource[j][item]; !ok && loadedOf[j] == nil {
				missing = append(missing, item)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		err := r.exchange(ctx, j, &costs[j], "", func(ctx context.Context) (err error) {
			fetched[j], err = e.Sources[j].Fetch(ctx, set.FromSorted(missing))
			return err
		})
		if err != nil {
			return fmt.Errorf("fetching from %s: %w", e.Sources[j].Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Source by source: the fetched remainder, then item by item what the
	// final round shipped or the source's loaded contents hold.
	out := relation.NewRelation(e.Sources[0].Schema())
	for j, src := range e.Sources {
		tuples := fetched[j]
		for _, item := range answer.Items() {
			if shipped, ok := r.sink.bySource[j][item]; ok {
				tuples = append(tuples, shipped...)
			} else if rel := loadedOf[j]; rel != nil {
				tuples = append(tuples, rel.RowsWithItem(item)...)
			}
		}
		for _, t := range tuples {
			if err := out.Insert(t); err != nil {
				return nil, fmt.Errorf("collecting records from %s: %w", src.Name(), err)
			}
		}
	}
	return out, nil
}

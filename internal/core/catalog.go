package core

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/stats"
)

// learned is what queries have found out about the sources of one roster epoch:
// the statistics catalog. It belongs to the rosters of that epoch and to
// nothing else, so its lifetime is theirs and no entry needs an epoch of its
// own.
//
// The catalog is one summary per source, built by the first plan that needs
// it. Planning reads it and nothing else, so a query whose catalog is warm
// plans without source traffic.
//
// A build is one stats exchange and is single-flight: concurrent queries that
// need the same source's summary wait for the one building it. A plan asks
// every source whose summary is missing at once (sourceStats), so a cold
// catalog costs the slowest source's round trip. Only a summary is ever kept.
// A build that fails, because its query was cancelled or the source was out
// of retries, leaves no entry behind, and each waiter whose own context is
// still live then builds for itself; a build that succeeded stays whatever
// became of the builds beside it, being a valid summary of its epoch.
type learned struct {
	mu      sync.Mutex
	entries map[string]*catalogEntry
}

type catalogEntry struct {
	// done is closed when the build ended; sum is written before that and is
	// nil when the build failed.
	done chan struct{}
	sum  *relation.Summary
}

// sourceStats returns what the summaries say of conds at each of srcs, in
// order, every source's cardinalities a row of one array. The summaries
// already held are read without a goroutine; the sources there is none of
// are all asked together, and of several failures the first source's is
// reported.
func (l *learned) sourceStats(ctx context.Context, srcs []source.Source, conds []cond.Cond, retries int) ([]stats.SourceStats, error) {
	sts := make([]stats.SourceStats, len(srcs))
	m := len(conds)
	cards := make([]float64, len(srcs)*m)
	var missing []int
	for j, src := range srcs {
		if sum := l.held(src.Name()); sum != nil {
			sts[j] = statsOf(src.Name(), sum, conds, cards[j*m:(j+1)*m:(j+1)*m])
		} else {
			missing = append(missing, j)
		}
	}
	if len(missing) == 0 {
		return sts, nil
	}
	err := exec.Overlap(len(missing), func(i int) error {
		j := missing[i]
		sum, err := l.summary(ctx, srcs[j], retries)
		if err == nil {
			sts[j] = statsOf(srcs[j].Name(), sum, conds, cards[j*m:(j+1)*m:(j+1)*m])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return sts, nil
}

// statsOf is stats.StatsFromSummary with the cardinalities written to card,
// which has a cell per condition.
func statsOf(name string, sum *relation.Summary, conds []cond.Cond, card []float64) stats.SourceStats {
	for i, c := range conds {
		card[i] = stats.EstimateSelectivity(sum, c) * float64(sum.DistinctItems)
	}
	return stats.SourceStats{Name: name, Tuples: sum.Tuples, DistinctItems: sum.DistinctItems, Bytes: sum.Bytes, CondCard: card}
}

// held returns the finished summary of the named source, nil when there is
// none: never built, or being built.
func (l *learned) held(name string) *relation.Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entries[name]; e != nil {
		select {
		case <-e.done:
			return e.sum
		default:
		}
	}
	return nil
}

// summary returns the summary of src, building it when there is none, with
// transient source failures retried up to retries times.
func (l *learned) summary(ctx context.Context, src source.Source, retries int) (*relation.Summary, error) {
	name := src.Name()
	for {
		l.mu.Lock()
		if l.entries == nil {
			l.entries = map[string]*catalogEntry{}
		}
		e, building := l.entries[name]
		if !building {
			e = &catalogEntry{done: make(chan struct{})}
			l.entries[name] = e
		}
		l.mu.Unlock()

		if !building {
			sum, err := summarize(ctx, src, retries)
			if err != nil {
				l.mu.Lock()
				if l.entries[name] == e {
					delete(l.entries, name)
				}
				l.mu.Unlock()
			}
			e.sum = sum
			close(e.done)
			return sum, err
		}
		select {
		case <-e.done:
			if e.sum != nil {
				return e.sum, nil
			}
			// The builder failed, for reasons of its own (its context, its
			// retry budget). Try again: as the builder, or behind a new one.
		case <-ctx.Done():
			return nil, fmt.Errorf("core: statistics of %s: %w", name, ctx.Err())
		}
	}
}

// summarize asks src for its summary, riding out transient failures under
// the retry budget execution has. Context errors are never transient, so
// cancellation stops the loop at once.
func summarize(ctx context.Context, src source.Source, retries int) (*relation.Summary, error) {
	for attempt := 0; ; attempt++ {
		sum, err := source.Summarize(ctx, src)
		if err == nil {
			return sum, nil
		}
		if attempt >= retries || !source.IsTransient(err) {
			return nil, fmt.Errorf("core: statistics of %s: %w", src.Name(), err)
		}
	}
}

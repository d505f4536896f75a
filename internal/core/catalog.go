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

// statsCatalog is the mediator's standing statistics: one summary per
// registered source, built by the first plan that needs it and kept until the
// roster epoch moves — the same signal that invalidates plans and answers
// above the mediator. Planning reads it and nothing else, so a query whose
// catalog is warm plans without source traffic.
//
// A build is one stats exchange and is single-flight: concurrent queries that
// need the same source's summary wait for the one building it. A plan asks
// every source whose summary is missing at once (sourceStats), so a cold
// catalog costs the slowest source's round trip. Only a summary is ever kept.
// A build that fails, because its query was cancelled or the source was out
// of retries, leaves no entry behind, and each waiter whose own context is
// still live then builds for itself; a build that succeeded stays whatever
// became of the builds beside it, being a valid summary of its epoch.
//
// All entries belong to one epoch: the first request at a newer epoch drops
// them, so the catalog never holds more than the roster has sources.
type statsCatalog struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[string]*catalogEntry
}

type catalogEntry struct {
	// done is closed when the build ended; sum is written before that and is
	// nil when the build failed.
	done chan struct{}
	sum  *relation.Summary
}

// sourceStats returns what the summaries say of conds at each of srcs, in
// order, as of the given roster epoch. The summaries the catalog holds are
// read without a goroutine; the sources it holds none of are all asked
// together, and of several failures the first source's is reported.
func (c *statsCatalog) sourceStats(ctx context.Context, epoch uint64, srcs []source.Source, conds []cond.Cond, retries int) ([]stats.SourceStats, error) {
	sts := make([]stats.SourceStats, len(srcs))
	var missing []int
	for j, src := range srcs {
		if sum := c.held(epoch, src.Name()); sum != nil {
			sts[j] = stats.StatsFromSummary(src.Name(), sum, conds)
		} else {
			missing = append(missing, j)
		}
	}
	if len(missing) == 0 {
		return sts, nil
	}
	err := exec.Overlap(len(missing), func(i int) error {
		j := missing[i]
		sum, err := c.summary(ctx, epoch, srcs[j], retries)
		if err == nil {
			sts[j] = stats.StatsFromSummary(srcs[j].Name(), sum, conds)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return sts, nil
}

// held returns the finished summary the catalog holds for the named source at
// the given epoch, nil when it has none: never built, being built, or of
// another epoch.
func (c *statsCatalog) held(epoch uint64, name string) *relation.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return nil
	}
	if e := c.entries[name]; e != nil {
		select {
		case <-e.done:
			return e.sum
		default:
		}
	}
	return nil
}

// summary returns the summary of src as of the given roster epoch, building
// it when the catalog has none, with transient source failures retried up to
// retries times.
func (c *statsCatalog) summary(ctx context.Context, epoch uint64, src source.Source, retries int) (*relation.Summary, error) {
	name := src.Name()
	for {
		c.mu.Lock()
		if epoch < c.epoch {
			// A query that took its roster before the epoch moved. What it
			// learns must not pass for statistics of the newer epoch.
			c.mu.Unlock()
			return summarize(ctx, src, retries)
		}
		if epoch > c.epoch || c.entries == nil {
			c.epoch, c.entries = epoch, map[string]*catalogEntry{}
		}
		e, building := c.entries[name]
		if !building {
			e = &catalogEntry{done: make(chan struct{})}
			c.entries[name] = e
		}
		c.mu.Unlock()

		if !building {
			sum, err := summarize(ctx, src, retries)
			if err != nil {
				c.mu.Lock()
				if c.entries[name] == e {
					delete(c.entries, name)
				}
				c.mu.Unlock()
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

package core

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/relation"
	"fusionq/internal/source"
)

// statsCatalog is the mediator's standing statistics: one summary per
// registered source, built by the first plan that needs it and kept until the
// roster epoch moves — the same signal that invalidates plans and answers
// above the mediator. Planning reads it and nothing else, so a query whose
// catalog is warm plans without source traffic.
//
// A build is one stats exchange and is single-flight: concurrent queries that
// need the same source's summary wait for the one building it. Only a summary
// is ever kept. A build that fails, because its query was cancelled or the
// source was out of retries, leaves no entry behind, and each waiter whose
// own context is still live then builds for itself.
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

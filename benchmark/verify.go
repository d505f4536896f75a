package main

import (
	"context"
	"fmt"
	"sync"
)

// references computes, after the measured phase, the reference answer's
// digest for every distinct query of the instance's traffic, from the raw
// relations its deployment served.
func references(ctx context.Context, in instance) ([]digest, error) {
	byID := make([]*query, in.distinct)
	for _, part := range [][]query{in.warm, in.measured} {
		for i := range part {
			byID[part[i].id] = &part[i]
		}
	}
	refs := make([]digest, in.distinct)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for id := c; id < len(byID); id += clients {
				if byID[id] == nil || errs[c] != nil || ctx.Err() != nil {
					continue
				}
				items, err := in.reference(*byID[id])
				if err != nil {
					errs[c] = fmt.Errorf("reference for query %d: %w", id, err)
					continue
				}
				refs[id] = digestOf(items)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, ctx.Err()
}

// countFailed counts the measured queries of one round that failed, were
// shed, or whose reply's item set differs from the reference.
func countFailed(tr traffic, outcomes []outcome, refs []digest) int {
	failed := 0
	for i, o := range outcomes {
		if o.failed || o.got != refs[tr.measured[i].id] {
			failed++
		}
	}
	return failed
}

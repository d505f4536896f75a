package exec

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/set"
)

// resolveConns sizes source j's side of an emulated semijoin: how many of
// its bindings are in flight at once — the source's connection capacity: its
// link's MaxConns, a replicated source's endpoints' summed, 1 without a
// network. Admission itself is the link's (source.Instrumented); this only
// gives the lanes enough workers to fill them.
func (r *run) resolveConns(j int) int {
	src := r.e.Sources[j]
	if rc, ok := src.(replicaSource); ok {
		total := 0
		for _, k := range rc.ReplicaConns() {
			total += k
		}
		return total
	}
	if r.e.Network != nil {
		return r.e.Network.ConnsFor(src.Name())
	}
	return 1
}

// queryStats tallies what one step's source interaction cost: charged
// queries (including failed attempts that reached the source),
// transient-failure re-issues (retries), and failed attempts (errors).
type queryStats struct {
	queries int
	retries int
	errors  int
}

// add accumulates o into q.
func (q *queryStats) add(o queryStats) {
	q.queries += o.queries
	q.retries += o.retries
	q.errors += o.errors
}

// bindings emulates a semijoin over items as passed-binding selections, one
// per item. The bindings are independent exchanges, so they are issued
// concurrently, as many as the source has connections — the single biggest
// response-time lever for passed-bindings sources, whose per-item queries
// otherwise serialize into the plan's critical path.
//
// Failure handling is per binding: a transient failure retries only that
// binding (up to the executor's retry budget), and the first permanent
// failure stops the fan-out — workers finish their in-flight binding and no
// new bindings are issued. Cancellation behaves the same way: workers
// observe ctx between bindings, so a cancelled query stops promptly without
// leaking goroutines. Every attempt that reached the source is charged in
// agg.queries, so measured SourceQueries reflect genuine traffic.
func (r *run) bindings(ctx context.Context, j int, c cond.Cond, items []string, agg *queryStats) (set.Set, error) {
	src := r.e.Sources[j]
	workers := r.resolveConns(j)
	if workers > len(items) {
		workers = len(items)
	}
	var (
		mu       sync.Mutex // guards next, firstErr, match and agg
		next     int
		firstErr error
		match    = make([]bool, len(items))
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("source %s: emulated semijoin: %w", src.Name(), err)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				if firstErr != nil || next >= len(items) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				// One passed-binding selection, retried on its own.
				var ok bool
				var bind queryStats
				err := r.exchange(ctx, j, &bind, items[i], func(ctx context.Context) (err error) {
					ok, err = src.SelectBinding(ctx, c, items[i])
					return err
				})
				mu.Lock()
				agg.add(bind)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				match[i] = ok
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return set.Set{}, firstErr
	}
	out := make([]string, 0, len(items))
	for i, ok := range match {
		if ok {
			out = append(out, items[i])
		}
	}
	return set.FromSorted(out), nil
}

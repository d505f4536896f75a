package exec

// This file implements per-source bounded-concurrency scheduling. Every
// source query a plan execution issues — a round's batch steps and the
// individual binding queries of an emulated semijoin alike — flows through
// a scheduler that caps the number of in-flight exchanges per source at
// that source's connection capacity (netsim.Link.MaxConns). This is the
// executor-side half of the response-time
// model: netsim.Makespan accounts the same k-lane schedule the scheduler
// enforces, and the plan/optimizer estimators rank orderings under it.

import (
	"context"
	"fmt"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/set"
)

// scheduler holds one slot pool per source; acquiring a slot admits one
// exchange to that source.
type scheduler struct {
	slots []chan struct{}
}

// newScheduler builds pools sized by conns (entries clamped to ≥1).
func newScheduler(conns []int) *scheduler {
	s := &scheduler{slots: make([]chan struct{}, len(conns))}
	for j, k := range conns {
		if k < 1 {
			k = 1
		}
		s.slots[j] = make(chan struct{}, k)
	}
	return s
}

// acquire blocks until source j has a free connection or ctx is done,
// returning the release function. A cancelled wait returns the ctx error
// unwrapped; callers attribute it.
func (s *scheduler) acquire(ctx context.Context, j int) (func(), error) {
	select {
	case s.slots[j] <- struct{}{}:
		return func() { <-s.slots[j] }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// selfScheduling marks sources that own their connection slots — the
// replica fabric queues exchanges per physical endpoint itself, so the
// executor's per-source scheduler steps aside for them.
type selfScheduling interface {
	SelfScheduling()
}

// slot admits one exchange to source j, returning a release function.
// Self-scheduling sources (the replica fabric) slot per physical endpoint
// internally and bypass the executor-side pool — double-slotting would
// serialize a logical source's replicas behind one lane. When the context
// carries a metrics registry, the wait and the admission are visible as the
// per-source queue-depth and lane-occupancy gauges.
func (r *run) slot(ctx context.Context, j int) (func(), error) {
	if _, ok := r.e.Sources[j].(selfScheduling); ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return func() {}, nil
	}
	met := obs.Meter(ctx)
	name := r.p.Sources[j]
	queue := met.Gauge(obs.MSchedQueueDepth, "source", name)
	queue.Inc()
	release, err := r.sched.acquire(ctx, j)
	queue.Dec()
	if err != nil {
		return nil, err
	}
	occ := met.Gauge(obs.MSchedLaneOccupancy, "source", name)
	occ.Inc()
	return func() {
		occ.Dec()
		release()
	}, nil
}

// sequential reports a round-scheduled run without parallelism: one
// exchange at a time, on one connection per source.
func (r *run) sequential() bool { return !r.e.Parallel && !r.pipelined }

// resolveConns works out source j's connection capacity, once per run: the
// network link's MaxConns, else 1. A sequential run is always
// single-connection — its accounting identity ResponseTime == TotalWork
// depends on it. A pipelined run is inherently concurrent (the nodes
// overlap), so it uses the parallel rule. A replicated source's capacity is
// the sum of its endpoints' pools (each endpoint enforces its own share
// inside the fabric). For an overlapped run with a network attached it also
// fills in the lane capacities settle reads.
func (r *run) resolveConns(j int) int {
	e, name, seq := r.e, r.e.Sources[j].Name(), r.sequential()
	conns := 1
	if rc, ok := e.Sources[j].(replicaSource); ok {
		total := 0
		for epName, k := range rc.ReplicaConns() {
			if seq {
				k = 1
			}
			total += k
			if r.laneConns != nil {
				r.laneConns[epName] = k
			}
		}
		if !seq && total > 1 {
			conns = total
		}
	} else if !seq && e.Network != nil {
		conns = e.Network.ConnsFor(name)
	}
	if r.laneConns != nil {
		r.laneConns[name] = conns
	}
	return conns
}

// queryStats tallies what one step's source interaction cost: charged
// queries (including failed attempts that reached the source), cache
// consultations answered locally (hits) or referred to the source (misses),
// transient-failure re-issues (retries), and failed attempts (errors).
type queryStats struct {
	queries int
	hits    int
	misses  int
	retries int
	errors  int
}

// add accumulates o into q.
func (q *queryStats) add(o queryStats) {
	q.queries += o.queries
	q.hits += o.hits
	q.misses += o.misses
	q.retries += o.retries
	q.errors += o.errors
}

// bindings emulates a semijoin over items as passed-binding selections, one
// per item. The bindings are independent exchanges, so they are issued
// concurrently through the source's connection slots — the single biggest
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
	workers := r.conns[j]
	if workers > len(items) {
		workers = len(items)
	}
	var (
		mu       sync.Mutex // guards next, firstErr, verdict and agg
		next     int
		firstErr error
		verdict  = make([]int8, len(items)) // 0 not probed, +1 matches, -1 does not
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
				verdict[i] = -1
				if ok {
					verdict[i] = 1
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// What was learned is recorded once, after the fan-out: all of items, or
	// the bindings that completed when one failed.
	probed, out := items, make([]string, 0, len(items))
	if firstErr != nil {
		probed = nil
	}
	for i, v := range verdict {
		if v > 0 {
			out = append(out, items[i])
		}
		if v != 0 && firstErr != nil {
			probed = append(probed, items[i])
		}
	}
	r.e.Cache.PutSemijoin(src.Name(), c, set.FromSorted(probed), set.FromSorted(out))
	if firstErr != nil {
		return set.Set{}, firstErr
	}
	return set.FromSorted(out), nil
}

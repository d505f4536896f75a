package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// digest is an order-free fingerprint of a reply's item set: the item
// count and two independent sums of per-item hashes. Clients keep digests
// in place of replies, since an answer-hot run returns some 10^8 items.
type digest struct {
	n        int
	sum, mix uint64
}

func digestOf(items []string) digest {
	d := digest{n: len(items)}
	for _, it := range items {
		h := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(it); i++ {
			h = (h ^ uint64(it[i])) * 1099511628211
		}
		d.sum += h
		d.mix += h * (h>>29 | 1)
	}
	return d
}

// outcome is what the client recorded for one measured query.
type outcome struct {
	got    digest
	failed bool // error or shed: no reply to verify
}

// round is the measurement of one round: a fresh deployment, a warm-up,
// then the fixed measured sequence from `clients` closed-loop clients.
type round struct {
	setupSec, setupCPUSec float64 // wall and process CPU of the set-up
	wallSec               float64
	cpuMs                 float64 // user+sys of the whole process over the measured phase
	// speed is the yardstick's time beside the measured phase over its
	// nominal time: above 1 on a machine that is slow just then.
	speed                float64
	mallocs              float64
	allocBytes           float64
	latencyMs            []float64 // answered queries
	outcomes             []outcome // by position in the measured sequence
	firstErr             error
	warmed               int      // warm-up queries, all answered
	built, before, after counters // at deployment start, and around the measured phase
	planHits, answerHits int
}

func (r *round) answered() int { return len(r.latencyMs) }

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// fire sends qs from the clients, each taking the next unsent query when
// its previous one has completed, and returns when all are answered.
// record is called from the client's goroutine with the query's position.
func fire(ctx context.Context, cs []*queryClient, qs []query, before func(i int), record func(i int, rep reply, lat time.Duration, err error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *queryClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || ctx.Err() != nil {
					return
				}
				if before != nil {
					before(i)
				}
				start := time.Now()
				rep, err := c.query(ctx, qs[i])
				record(i, rep, time.Since(start), err)
			}
		}(c)
	}
	wg.Wait()
}

// instance is what one seed makes of a workload: the traffic and the data
// it is fired at, which the correctness gate needs after the deployment
// that served them is gone.
type instance struct {
	traffic
	dataset
}

// runRound makes the workload's instance for seed, builds its deployment,
// warms it up and measures one round.
func runRound(ctx context.Context, w workloadSpec, seed int64) (*round, instance, error) {
	setupStart := time.Now()
	setupCPU, err := cpuTime()
	if err != nil {
		return nil, instance{}, err
	}
	tr := w.generate(seed)
	d, err := buildDeployment(ctx, w.deploy, w.engine, seed, nil)
	if err != nil {
		return nil, instance{}, err
	}
	defer d.close()
	built := d.counters()
	cs := make([]*queryClient, clients)
	for i := range cs {
		if cs[i], err = d.dial(ctx, w.chunk); err != nil {
			return nil, instance{}, err
		}
		defer cs[i].close()
	}
	var warmErr atomic.Value
	fire(ctx, cs, tr.warm, nil, func(_ int, _ reply, _ time.Duration, err error) {
		if err != nil {
			warmErr.CompareAndSwap(nil, err)
		}
	})
	if err, _ := warmErr.Load().(error); err != nil {
		return nil, instance{}, fmt.Errorf("warm-up: %w", err)
	}

	r := &round{outcomes: make([]outcome, len(tr.measured)), warmed: len(tr.warm), built: built}
	lat := make([]time.Duration, len(tr.measured))
	var mu sync.Mutex // guards firstErr and the hit tallies
	var bump func(int)
	if w.bumpEvery > 0 {
		bump = func(i int) {
			if i > 0 && i%w.bumpEvery == 0 {
				d.bumpEpoch()
			}
		}
	}

	// Collect what earlier rounds left behind, so that this round's
	// allocation counters and pauses are its own.
	runtime.GC()
	r.setupSec = time.Since(setupStart).Seconds()
	setupEndCPU, err := cpuTime()
	if err != nil {
		return nil, instance{}, err
	}
	r.setupCPUSec = (setupEndCPU - setupCPU).Seconds()
	yard0, err := yardstick()
	if err != nil {
		return nil, instance{}, err
	}
	r.before = d.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, instance{}, err
	}
	start := time.Now()

	fire(ctx, cs, tr.measured, bump, func(i int, rep reply, l time.Duration, err error) {
		if err != nil {
			r.outcomes[i].failed = true
			mu.Lock()
			if r.firstErr == nil && !isShed(err) {
				r.firstErr = err
			}
			mu.Unlock()
			return
		}
		lat[i] = l
		r.outcomes[i].got = digestOf(rep.items)
		if rep.answerCached || rep.planCached {
			mu.Lock()
			if rep.answerCached {
				r.answerHits++
			} else {
				r.planHits++
			}
			mu.Unlock()
		}
	})

	r.wallSec = time.Since(start).Seconds()
	cpu1, err := cpuTime()
	if err != nil {
		return nil, instance{}, err
	}
	runtime.ReadMemStats(&ms1)
	r.after = d.counters()
	yard1, err := yardstick()
	if err != nil {
		return nil, instance{}, err
	}
	r.speed = (yard0 + yard1) / 2 / yardNominalMs
	r.cpuMs = float64(cpu1-cpu0) / float64(time.Millisecond)
	r.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	r.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	for i, o := range r.outcomes {
		if !o.failed {
			r.latencyMs = append(r.latencyMs, float64(lat[i])/float64(time.Millisecond))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, instance{}, fmt.Errorf("round abandoned: %w", err)
	}
	return r, instance{tr, d.dataset}, nil
}

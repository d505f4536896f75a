// Package service turns the one-query-at-a-time mediator of internal/core
// into a long-lived multi-tenant fusion-query service (DESIGN.md §16): an
// admission controller bounds concurrent queries and enforces per-tenant
// token-bucket quotas with honest load-shedding; a plan cache keyed by
// (canonical conditions, roster epoch) lets repeated queries skip statistics
// gathering and optimization; a whole-answer cache with TTL and size bounds
// answers repeats without executing at all, and identical queries that miss
// it together execute once. cmd/fqd serves the engine over the wire
// protocol's query op and DialService is its client; the oracle's fqd phase
// checks every answer it serves under concurrent tenants.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fusionq/internal/obs"
)

// ShedReason classifies why admission control rejected a query. The reasons
// are the label values of fq_shed_total.
type ShedReason string

// The shed reasons.
const (
	// ShedQueueFull: every execution slot was busy and the wait queue was at
	// its bound — the service is overloaded regardless of tenant.
	ShedQueueFull ShedReason = "queue-full"
	// ShedQuota: the tenant's token bucket was empty — this tenant is over
	// its rate, independent of overall load.
	ShedQuota ShedReason = "quota"
	// ShedDraining: the service is shutting down and admits nothing new.
	ShedDraining ShedReason = "draining"
)

// ShedError is the typed rejection a shed query gets. Callers distinguish it
// from execution errors with errors.As; the wire server maps it to the
// response code "shed:<reason>".
type ShedError struct {
	Tenant string
	Reason ShedReason
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("service: query shed (%s) for tenant %q", e.Reason, e.Tenant)
}

// AdmissionConfig tunes an Admission controller.
type AdmissionConfig struct {
	// MaxInflight bounds concurrently executing queries (default 8).
	MaxInflight int
	// MaxQueue bounds queries waiting for an execution slot beyond the
	// in-flight bound (default 2×MaxInflight). Negative means no waiting:
	// a query that cannot start immediately is shed.
	MaxQueue int
	// TenantRate is each tenant's sustained admission rate in queries per
	// second; TenantBurst is the bucket capacity (default max(1, TenantRate)).
	// A non-positive rate disables quotas.
	TenantRate  float64
	TenantBurst float64
	// Metrics receives the admission metrics (fq_admitted_total,
	// fq_shed_total, fq_inflight, fq_admit_queue_depth). Nil means the
	// process-wide default registry.
	Metrics *obs.Registry
	// Now overrides the clock for quota refill (tests). Nil means time.Now.
	Now func() time.Time
}

// Admission is the service's admission state machine. Every query lands in
// exactly one of three outcomes, each with its own metric delta:
//
//	admitted — fq_admitted_total{tenant}++ and fq_inflight++ until release
//	shed     — fq_shed_total{tenant,reason}++ (queue-full | quota | draining)
//	abandoned — the caller's ctx ended while waiting; no admission delta,
//	            the ctx error is returned as-is
//
// The checks run in a fixed order: draining, then quota (a shed attempt does
// not spend a token), then slot/queue capacity.
type Admission struct {
	cfg     AdmissionConfig
	metrics *obs.Registry
	now     func() time.Time

	// slots holds one unit per executing query; acquiring is a send,
	// releasing a receive. Drain takes the whole capacity to wait out the
	// in-flight queries without admitting new ones.
	slots chan struct{}
	// draining is closed when Drain begins; waiters and new arrivals shed.
	draining  chan struct{}
	drainDone chan struct{}
	drainOnce sync.Once

	mu      sync.Mutex
	queued  int
	buckets map[string]*bucket
}

// bucket is one tenant's token bucket; refill is computed lazily from the
// elapsed time at each take.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxInflight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.TenantRate > 0 && cfg.TenantBurst <= 0 {
		cfg.TenantBurst = max(1, cfg.TenantRate)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	obs.DescribeAll(metrics)
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Admission{
		cfg:       cfg,
		metrics:   metrics,
		now:       now,
		slots:     make(chan struct{}, cfg.MaxInflight),
		draining:  make(chan struct{}),
		drainDone: make(chan struct{}),
		buckets:   map[string]*bucket{},
	}
}

// Admit asks to run one query for tenant. On success it returns a release
// function the caller must invoke when the query finishes (idempotent). On
// rejection it returns a *ShedError; when ctx ends first it returns the ctx
// error with no admission delta.
func (a *Admission) Admit(ctx context.Context, tenant string) (func(), error) {
	if a.isDraining() {
		return nil, a.shed(tenant, ShedDraining)
	}
	if !a.takeToken(tenant) {
		return nil, a.shed(tenant, ShedQuota)
	}
	release, err := a.acquire(ctx, tenant)
	if err == nil {
		a.metrics.Counter(obs.MAdmitted, "tenant", tenant).Inc()
	}
	return release, err
}

// acquire takes an execution slot for an admitted query, queueing for one
// as Admit does but spending no token and charging no admission: a query
// that gave its slot up while it waited for another's execution takes one
// back through it to execute itself.
func (a *Admission) acquire(ctx context.Context, tenant string) (func(), error) {
	// Fast path: a free slot means no queueing.
	select {
	case a.slots <- struct{}{}:
		return a.admitted(tenant)
	default:
	}
	a.mu.Lock()
	if a.queued >= a.cfg.MaxQueue {
		a.mu.Unlock()
		return nil, a.shed(tenant, ShedQueueFull)
	}
	a.queued++
	a.mu.Unlock()
	a.metrics.Gauge(obs.MAdmitQueue).Inc()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
		a.metrics.Gauge(obs.MAdmitQueue).Dec()
	}()
	select {
	case a.slots <- struct{}{}:
		return a.admitted(tenant)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-a.draining:
		return nil, a.shed(tenant, ShedDraining)
	}
}

// admitted finalizes a slot acquisition. The select that won the slot may
// have raced a concurrent Drain; re-checking here guarantees a strict drain
// barrier — nothing is admitted after Drain begins.
func (a *Admission) admitted(tenant string) (func(), error) {
	if a.isDraining() {
		<-a.slots
		return nil, a.shed(tenant, ShedDraining)
	}
	a.metrics.Gauge(obs.MInflight).Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			a.metrics.Gauge(obs.MInflight).Dec()
		})
	}, nil
}

// shed charges the rejection and builds the typed error.
func (a *Admission) shed(tenant string, reason ShedReason) error {
	a.metrics.Counter(obs.MShed, "tenant", tenant, "reason", string(reason)).Inc()
	return &ShedError{Tenant: tenant, Reason: reason}
}

func (a *Admission) isDraining() bool {
	select {
	case <-a.draining:
		return true
	default:
		return false
	}
}

// takeToken spends one quota token for tenant, refilling the bucket from the
// elapsed time first. Always true when quotas are disabled.
func (a *Admission) takeToken(tenant string) bool {
	if a.cfg.TenantRate <= 0 {
		return true
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: a.cfg.TenantBurst, last: now}
		a.buckets[tenant] = b
	}
	b.tokens = min(a.cfg.TenantBurst, b.tokens+now.Sub(b.last).Seconds()*a.cfg.TenantRate)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Drain shuts admission down: new queries shed with reason draining, queued
// waiters are woken and shed, and Drain returns once every in-flight query
// has released its slot (it acquires the whole slot capacity to wait them
// out). If ctx expires first the error is returned and the controller stays
// draining — callers then force-stop whatever is still running. Safe to call
// concurrently; later calls wait for the first to finish.
func (a *Admission) Drain(ctx context.Context) error {
	first := false
	a.drainOnce.Do(func() {
		first = true
		close(a.draining)
	})
	if !first {
		select {
		case <-a.drainDone:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("service: drain: %w", ctx.Err())
		}
	}
	for i := 0; i < cap(a.slots); i++ {
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("service: drain: %w", ctx.Err())
		}
	}
	close(a.drainDone)
	return nil
}

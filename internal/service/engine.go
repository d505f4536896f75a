package service

import (
	"context"
	"errors"
	"fmt"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/set"
	"fusionq/internal/wire"
)

// Config tunes an Engine.
type Config struct {
	// Admission configures the admission controller. Its Metrics field is
	// overridden by Config.Metrics when that is set.
	Admission AdmissionConfig
	// PlanEntries bounds the plan cache (default 256; negative disables).
	PlanEntries int
	// Answers configures the whole-answer cache. Its Metrics/Now fields
	// default like the admission controller's.
	Answers AnswerCacheConfig
	// Options are the base execution options applied to every query
	// (Algorithm, Cache, Retries, Records...). The request's Stream flag
	// overrides Options.Streaming per query. An algorithm that decides its
	// rounds at run time (core.Algorithm.Adaptive) leaves no plan to cache.
	// A records query (Options.Records) has its plan cached like any other,
	// but neither reads nor fills the answer cache, which holds items only.
	Options core.Options
	// Metrics receives the service metrics and, unless the mediator already
	// has a registry, the mediator's query metrics too. Nil means the
	// process-wide default registry.
	Metrics *obs.Registry
}

// Request is one service query.
type Request struct {
	// Tenant is the quota account; empty means the shared anonymous tenant.
	Tenant string
	// Conds are the fusion conditions.
	Conds []cond.Cond
	// Stream executes with the streaming pipeline (core.Options.Streaming).
	Stream bool
}

// Result is one service query's outcome.
type Result struct {
	// Answer is the mediator's answer. For an answer-cache hit it carries
	// only Items — no plan, counters or trace, since nothing executed.
	Answer *core.Answer
	// PlanCached reports the query reused a cached plan; AnswerCached that
	// it was served whole from the answer cache.
	PlanCached   bool
	AnswerCached bool
	// encoded is Answer.Items as the wire's item block, when the answer
	// cache holds them so: the Server writes it instead of each item to a
	// client that reads blocks.
	encoded wire.EncodedItems
}

// Engine is the multi-tenant fusion-query service core: admission control in
// front of a Mediator, with a plan cache and a whole-answer cache keyed by
// canonical query and roster epoch. It is transport-free — the wire Server
// (cmd/fqd and the oracle's fqd phase), the benchmark and the integration
// tests all drive the same Engine. Safe for concurrent use.
type Engine struct {
	med     *core.Mediator
	adm     *Admission
	plans   *PlanCache
	answers *AnswerCache
	opts    core.Options
	metrics *obs.Registry
}

// NewEngine builds an engine over med.
func NewEngine(med *core.Mediator, cfg Config) *Engine {
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	obs.DescribeAll(metrics)
	if cfg.Admission.Metrics == nil {
		cfg.Admission.Metrics = metrics
	}
	if cfg.Answers.Metrics == nil {
		cfg.Answers.Metrics = metrics
	}
	if cfg.PlanEntries == 0 {
		cfg.PlanEntries = 256
	}
	return &Engine{
		med:     med,
		adm:     NewAdmission(cfg.Admission),
		plans:   NewPlanCache(cfg.PlanEntries, metrics),
		answers: NewAnswerCache(cfg.Answers),
		opts:    cfg.Options,
		metrics: metrics,
	}
}

// Mediator returns the engine's mediator.
func (e *Engine) Mediator() *core.Mediator { return e.med }

// PlanCache returns the engine's plan cache (tests and introspection).
func (e *Engine) PlanCache() *PlanCache { return e.plans }

// AnswerCache returns the engine's answer cache (tests and introspection).
func (e *Engine) AnswerCache() *AnswerCache { return e.answers }

// ParseConds parses textual conditions (the wire form) into cond.Conds.
func ParseConds(texts []string) ([]cond.Cond, error) {
	out := make([]cond.Cond, len(texts))
	for i, s := range texts {
		c, err := cond.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("service: condition %d: %w", i+1, err)
		}
		out[i] = c
	}
	return out, nil
}

// Query admits, resolves and executes one query:
//
//  1. admission — bounded in-flight slots, bounded wait queue, per-tenant
//     token bucket; a rejection is a *ShedError, a caller-abandoned wait
//     returns the ctx error
//  2. answer cache — a fresh same-epoch answer short-circuits execution
//  3. plan cache — a same-epoch plan skips statistics + optimization via
//     core.QueryPlannedContext; core.ErrStalePlan invalidates and re-plans
//  4. fresh plan + execute, then cache the plan and the answer
//
// After a mid-query roster repair (Answer.Repair non-nil) the engine removes
// the dead logical sources from the mediator roster, moving the epoch so
// every cached plan and answer from the old roster invalidates; the repaired
// (possibly partial) answer itself is never cached. Neither is the answer of
// a records query, which the answer cache could not give back whole.
func (e *Engine) Query(ctx context.Context, req Request) (*Result, error) {
	if len(req.Conds) == 0 {
		return nil, errors.New("service: query has no conditions")
	}
	release, err := e.adm.Admit(ctx, req.Tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	opts := e.opts
	opts.Streaming = req.Stream
	key := QueryKey(req.Conds, opts.Algorithm)
	epoch := e.med.Epoch()

	if !opts.Records {
		if enc, ok := e.answers.get(key, epoch); ok {
			return &Result{Answer: &core.Answer{Items: set.FromSorted(enc.Items())}, AnswerCached: true, encoded: enc}, nil
		}
	}

	if res, ok := e.plans.Get(key, epoch); ok {
		ans, err := e.med.QueryPlannedContext(ctx, req.Conds, res, opts)
		if !errors.Is(err, core.ErrStalePlan) {
			return e.finish(key, epoch, ans, err, true)
		}
		// The roster moved between the epoch check and execution; drop
		// the entry and fall through to a fresh plan.
		e.plans.Invalidate(key)
	}
	ans, err := e.med.QueryCondsContext(ctx, req.Conds, opts)
	if err == nil && ans.Repair == nil && !opts.Algorithm.Adaptive() {
		e.plans.Put(key, epoch, optimizer.Result{Plan: ans.Plan, Cost: ans.EstimatedCost})
	}
	return e.finish(key, epoch, ans, err, false)
}

// finish applies the post-execution cache and roster policy shared by the
// planned and fresh paths.
func (e *Engine) finish(key string, epoch uint64, ans *core.Answer, err error, planCached bool) (*Result, error) {
	if err != nil {
		if ans == nil {
			return nil, err
		}
		return &Result{Answer: ans, PlanCached: planCached}, err
	}
	res := &Result{Answer: ans, PlanCached: planCached}
	if ans.Repair != nil {
		// The query outlived part of its roster snapshot. Reconcile the
		// mediator: dead sources leave the roster (each removal moves the
		// epoch, invalidating old-roster cache entries), and the repaired
		// partial answer is not cached.
		for _, name := range ans.Repair.Dead {
			e.med.RemoveSource(name)
		}
	} else if ans.Records == nil {
		res.encoded = e.answers.Put(key, epoch, ans.Items.Items())
	}
	return res, nil
}

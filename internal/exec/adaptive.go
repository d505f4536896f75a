package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// RunAdaptive executes a fusion query with mid-query re-optimization: the
// static algorithms of Section 3 commit to an ordering and to per-source
// method choices using estimated running-set sizes, but at run time the
// mediator knows |X_i| exactly after every round. Adaptive execution defers
// each decision until its inputs are measured:
//
//   - the next condition is the unprocessed one whose round costs least
//     against the measured |X|;
//   - each source's method (selection / semijoin / Bloom semijoin) is chosen
//     with the measured |X| as the semijoin-set size;
//   - a drained running set ends the query immediately.
//
// This is the runtime counterpart of the paper's observation that SJA is
// only a heuristic under condition dependence (Section 1): when estimates
// mislead, measured cardinalities correct course round by round
// (experiment E15). The executed steps are recorded as a plan in Result
// form for inspection.
//
// Like Run, a failed or cancelled execution returns a non-nil Result whose
// counters report the work already performed, with the error wrapping the
// cause.
func (e *Executor) RunAdaptive(ctx context.Context, pr *optimizer.Problem) (*Result, *plan.Plan, error) {
	if err := pr.Validate(); err != nil {
		return nil, nil, err
	}
	if len(pr.Sources) != len(e.Sources) {
		return nil, nil, fmt.Errorf("exec: problem has %d sources, executor has %d", len(pr.Sources), len(e.Sources))
	}
	for j, name := range pr.Sources {
		if e.Sources[j].Name() != name {
			return nil, nil, fmt.Errorf("exec: problem source %d is %q but executor has %q", j, name, e.Sources[j].Name())
		}
	}
	m, n := len(pr.Conds), len(pr.Sources)
	t := pr.Table

	executed := &plan.Plan{Conds: pr.Conds, Sources: pr.Sources, Class: "adaptive"}
	res := &Result{Vars: map[string]set.Set{}, FailedStep: -1}
	placed := make([]bool, m)
	conns := make([]int, len(e.Sources))
	for j := range e.Sources {
		conns[j] = e.connsFor(j)
	}
	e.sched = newScheduler(conns)
	if e.Network != nil {
		pre := e.Network.Stats().TotalTime
		defer func() {
			if d := e.Network.Stats().TotalTime - pre; d > 0 {
				res.TotalWork = d
			}
			if !e.Parallel {
				res.ResponseTime = res.TotalWork
			}
		}()
	}

	record := func(s plan.Step, out set.Set, qs queryStats) {
		executed.Steps = append(executed.Steps, s)
		res.Vars[s.Out] = out
		res.SourceQueries += qs.queries
		res.CacheHits += qs.hits
		res.CacheMisses += qs.misses
		res.Retries += qs.retries
	}
	// charge flushes a failed query's statistics: the attempts reached the
	// source, so the partial Result must report them.
	charge := func(qs queryStats) {
		res.SourceQueries += qs.queries
		res.CacheHits += qs.hits
		res.CacheMisses += qs.misses
		res.Retries += qs.retries
	}

	// query issues one adaptive source query. Adaptive rounds issue their
	// per-source queries one source at a time, so in parallel mode the
	// response time is the per-call makespan — an emulated semijoin's binding
	// fan-out over the source's connections is the only intra-call
	// parallelism.
	query := func(ci, j int, method optimizer.Method, x set.Set) (set.Set, queryStats, error) {
		var mark netsim.Mark
		if e.Parallel && e.Network != nil {
			mark = e.Network.Mark()
		}
		out, qs, err := e.sourceQuery(ctx, pr, ci, j, method, x)
		if e.Parallel && e.Network != nil {
			var durs []time.Duration
			for _, ex := range e.Network.Since(mark) {
				durs = append(durs, ex.Elapsed)
			}
			res.ResponseTime += netsim.Makespan(durs, e.connsFor(j))
		}
		return out, qs, err
	}

	// First round: cheapest estimated selections relative to the set they
	// leave behind (most selective first, cost as tiebreak).
	first, bestCost, bestCard := -1, math.Inf(1), math.Inf(1)
	for i := 0; i < m; i++ {
		c := 0.0
		for j := 0; j < n; j++ {
			c += t.Sq[i][j]
		}
		card := t.FirstRoundCard(i)
		if card < bestCard || (card == bestCard && c < bestCost) {
			first, bestCost, bestCard = i, c, card
		}
	}
	placed[first] = true
	parts := make([]set.Set, n)
	var names []string
	for j := 0; j < n; j++ {
		out, qs, err := query(first, j, optimizer.MethodSelect, set.Set{})
		if err != nil {
			charge(qs)
			return res, executed, err
		}
		name := fmt.Sprintf("X1%d", j+1)
		record(plan.Step{Kind: plan.KindSelect, Out: name, Cond: first, Source: j}, out, qs)
		parts[j] = out
		names = append(names, name)
	}
	x := set.UnionAll(parts...)
	record(plan.Step{Kind: plan.KindUnion, Out: "X1", Cond: -1, Source: -1, In: names}, x, queryStats{})

	for r := 2; r <= m && !x.IsEmpty(); r++ {
		if err := ctx.Err(); err != nil {
			return res, executed, fmt.Errorf("exec: adaptive: %w", err)
		}
		// Pick the next condition against the MEASURED |X|.
		measured := float64(x.Len())
		nextIdx, nextCost := -1, math.Inf(1)
		var nextMethods []optimizer.Method
		for i := 0; i < m; i++ {
			if placed[i] {
				continue
			}
			roundCost := 0.0
			methods := make([]optimizer.Method, n)
			for j := 0; j < n; j++ {
				method, cost := optimizer.BestMethod(t, i, j, measured)
				methods[j] = method
				roundCost += cost
			}
			if roundCost < nextCost {
				nextIdx, nextCost, nextMethods = i, roundCost, methods
			}
		}
		placed[nextIdx] = true

		var selVars, sjVars []string
		var selSets, sjSets []set.Set
		for j := 0; j < n; j++ {
			method := nextMethods[j]
			name := fmt.Sprintf("X%d%d", r, j+1)
			out, qs, err := query(nextIdx, j, method, x)
			if err != nil {
				charge(qs)
				return res, executed, err
			}
			switch method {
			case optimizer.MethodSelect:
				record(plan.Step{Kind: plan.KindSelect, Out: name, Cond: nextIdx, Source: j}, out, qs)
				selVars = append(selVars, name)
				selSets = append(selSets, out)
			case optimizer.MethodBloom:
				record(plan.Step{Kind: plan.KindBloomSemijoin, Out: name, Cond: nextIdx, Source: j, In: []string{fmt.Sprintf("X%d", r-1)}}, out, qs)
				sjVars = append(sjVars, name)
				sjSets = append(sjSets, out)
			default:
				record(plan.Step{Kind: plan.KindSemijoin, Out: name, Cond: nextIdx, Source: j, In: []string{fmt.Sprintf("X%d", r-1)}}, out, qs)
				sjVars = append(sjVars, name)
				sjSets = append(sjSets, out)
			}
		}
		all := append(append([]string(nil), selVars...), sjVars...)
		u := set.UnionAll(append(append([]set.Set(nil), selSets...), sjSets...)...)
		out := fmt.Sprintf("X%d", r)
		record(plan.Step{Kind: plan.KindUnion, Out: out, Cond: -1, Source: -1, In: all}, u, queryStats{})
		if len(selVars) > 0 {
			u = u.Intersect(x)
			record(plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: []string{out, fmt.Sprintf("X%d", r-1)}}, u, queryStats{})
		}
		x = u
	}
	// A drained set answers all remaining conditions vacuously with ∅.
	res.Answer = x
	executed.Result = executed.Steps[len(executed.Steps)-1].Out
	return res, executed, nil
}

// sourceQuery issues one adaptive-round query with the chosen method through
// the cache and scheduler, honoring the executor's retry budget. Emulated
// semijoins retry per binding inside semijoinQuery, so the whole-call retry
// budget is zeroed for them; failed attempts stay charged in the returned
// stats. Context errors are never transient, so cancellation stops the
// retry loop at once. Each call is a step span (re-attempts get attempt
// spans beneath it) and emits the same per-source counters as planned-mode
// steps.
func (e *Executor) sourceQuery(ctx context.Context, pr *optimizer.Problem, ci, j int, method optimizer.Method, x set.Set) (set.Set, queryStats, error) {
	src := e.Sources[j]
	budget := e.Retries
	if method != optimizer.MethodSelect && method != optimizer.MethodBloom {
		if caps := src.Caps(); !caps.NativeSemijoin && caps.PassedBindings {
			budget = 0
		}
	}
	sctx, span := obs.StartSpan(ctx, obs.KindStep, fmt.Sprintf("adaptive %s(c%d) @ %s", method, ci+1, src.Name()))
	span.SetAttr("source", src.Name())

	var acc queryStats
	var out set.Set
	var err error
	for attempt := 0; ; attempt++ {
		actx := sctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(sctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		var qs queryStats
		out, qs, err = e.attemptSourceQuery(actx, pr, ci, j, method, x)
		asp.End(err)
		acc.add(qs)
		if err == nil {
			break
		}
		acc.errors++
		if attempt >= budget || !source.IsTransient(err) {
			err = fmt.Errorf("exec: adaptive %s at %s: %w", method, src.Name(), err)
			break
		}
		acc.retries++
	}
	span.End(err)

	met := obs.Meter(ctx)
	met.Counter(obs.MSourceQueries, "source", src.Name()).Add(int64(acc.queries))
	met.Counter(obs.MCacheHits, "source", src.Name()).Add(int64(acc.hits))
	met.Counter(obs.MCacheMisses, "source", src.Name()).Add(int64(acc.misses))
	met.Counter(obs.MRetries, "source", src.Name()).Add(int64(acc.retries))
	if err != nil {
		met.Counter(obs.MStepErrors, "source", src.Name()).Inc()
		return set.Set{}, acc, err
	}
	return out, acc, nil
}

// attemptSourceQuery performs one attempt of an adaptive-round query.
func (e *Executor) attemptSourceQuery(ctx context.Context, pr *optimizer.Problem, ci, j int, method optimizer.Method, x set.Set) (set.Set, queryStats, error) {
	src := e.Sources[j]
	switch method {
	case optimizer.MethodSelect:
		return e.selectQuery(ctx, j, pr.Conds[ci])
	case optimizer.MethodBloom:
		filter := bloom.FromItems(x.Items(), bloom.DefaultBitsPerItem)
		release, err := e.slot(ctx, j)
		if err != nil {
			return set.Set{}, queryStats{}, fmt.Errorf("source %s: %w", src.Name(), err)
		}
		positives, err := src.SemijoinBloom(ctx, pr.Conds[ci], filter)
		release()
		qs := queryStats{queries: 1}
		if err != nil {
			return set.Set{}, qs, err
		}
		return positives.Intersect(x), qs, nil
	default:
		return e.semijoinQuery(ctx, j, pr.Conds[ci], x)
	}
}

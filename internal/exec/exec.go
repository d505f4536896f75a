// Package exec implements the mediator's plan executor. It runs the
// straight-line plans of internal/plan against wrapped sources, performing
// the local set algebra (∪, ∩, −) and the postoptimization local
// selections at the mediator, and issuing selection, semijoin and load
// queries to the sources.
//
// Two execution modes are provided, both flowing through the same
// per-source bounded scheduler (scheduler.go). Sequential mode issues one
// source query at a time — each source-query step is a singleton batch on a
// single connection — so its simulated elapsed time equals the "total work"
// the paper's cost model minimizes. Parallel mode (the response-time
// direction the paper names as future work in Section 6) issues each
// round's independent source queries concurrently: every source admits at
// most its connection capacity of in-flight exchanges, emulated semijoins
// fan their binding queries out across those connections, and the simulated
// response time drops to the per-round critical path over the per-source
// k-lane schedules. Total work is unchanged by parallelism.
//
// Every run takes a context.Context. Cancellation is observed between
// steps, between the bindings of an emulated semijoin, and inside
// individual source exchanges; a cancelled run stops promptly, leaks no
// goroutines, and still returns a Result whose counters report the source
// queries and simulated work already paid for, alongside an error wrapping
// ctx.Err().
//
// A mediator-side answer cache (cache.go) can be attached to either mode:
// selection results and per-item membership verdicts learned from earlier
// queries answer repeated work without source traffic.
package exec

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// Executor runs plans against a fixed roster of sources. An Executor may
// be reused for sequential runs but is not safe for concurrent Run calls;
// within one run, parallel mode manages its own synchronization.
type Executor struct {
	// Sources must align with the Sources of every executed plan: the
	// step's Source index selects into this slice.
	Sources []source.Source
	// Network, when set, is used to account simulated response time. It
	// must be the same network the sources' instrumentation records to.
	Network *netsim.Network
	// Parallel enables concurrent execution of each round's independent
	// source queries, bounded per source by Conns / the link's MaxConns.
	Parallel bool
	// Conns, when positive, overrides every source's connection capacity
	// for parallel execution. Zero defers to the network link's MaxConns
	// (default 1). Sequential mode always runs single-connection.
	Conns int
	// Cache, when set, is consulted before every selection and binding
	// query and filters semijoin sets down to items with unknown verdicts.
	// Sharing one Cache across runs (adaptive rounds, repeated mediator
	// queries) lets later executions skip source traffic; see Cache for the
	// freshness caveats with autonomous sources.
	Cache *Cache
	// Trace records a per-step execution trace (Result.Trace): output
	// cardinalities, issued queries, cache hits, and elapsed simulated
	// time. Elapsed is attributed per step from the network exchange log
	// (steps sharing a source split the source's time pro rata by issued
	// queries).
	Trace bool
	// Retries is how many times a step whose source query fails with a
	// transient error (source.ErrTransient) is re-issued before the run
	// fails. Zero disables retries. Emulated semijoins retry per binding
	// query rather than per step: one flaky binding never re-issues the
	// bindings that already succeeded. Context cancellation is never
	// retried.
	Retries int
	// Streaming switches Run to the pull-based dataflow executor
	// (stream.go): every plan step becomes a concurrent node exchanging
	// sorted item batches, source selections are consumed chunk by chunk,
	// and semijoins fan out as input batches arrive. The answer and the
	// honest-partial guarantees are identical to the materialized path;
	// what changes is peak intermediate memory (bounded batch buffers
	// instead of whole variables) and the latency of the first answer
	// batch. Combined-record mode (RunCombined) always runs materialized.
	Streaming bool
	// BatchSize is the item-batch granularity of streaming execution and
	// of chunked source transfers; zero means set.DefaultBatch.
	BatchSize int

	// sched is the per-source slot pool of the current run.
	sched *scheduler

	// Combined-mode state (set up by RunCombined): when records is
	// non-nil, final-round queries (condition finalCond) use the
	// record-returning source operations and their results are cached.
	finalCond  int
	records    map[int]map[string][]relation.Tuple
	mu         sync.Mutex
	lastLoaded map[string]*relation.Relation
}

// Result summarizes one plan execution.
type Result struct {
	// Answer is the value of the plan's result variable: the items
	// satisfying all conditions of the fusion query. Empty when the run
	// failed or was cancelled before the result variable was computed.
	Answer set.Set
	// Vars holds the final value of every set variable. After a failed or
	// cancelled run it holds the variables computed so far.
	Vars map[string]set.Set
	// SourceQueries counts charged source operations actually issued
	// (selections, native semijoins, emulated per-binding selections,
	// loads) — including attempts that reached the source before the run
	// failed or was cancelled.
	SourceQueries int
	// TotalWork is the summed simulated duration of all exchanges — the
	// quantity the optimizers minimize. Zero without a Network.
	TotalWork time.Duration
	// ResponseTime is the simulated wall-clock: equal to TotalWork in
	// sequential mode, the sum of per-batch critical paths in parallel
	// mode, where each source's contribution to a batch is the makespan of
	// its exchanges over its connection capacity (netsim.Makespan). Zero
	// without a Network.
	ResponseTime time.Duration
	// CacheHits and CacheMisses count answer-cache consultations: a hit is
	// one source query avoided (a whole cached selection, or one binding
	// verdict), a miss went to the source. Both zero without a cache.
	CacheHits   int
	CacheMisses int
	// Retries counts source operations re-issued after a transient failure
	// — whole steps, or individual bindings of an emulated semijoin. The
	// re-issues themselves are already charged in SourceQueries.
	Retries int
	// PeakBytes is the high-water mark of mediator-held intermediate item
	// bytes (set.Bytes units). Materialized runs count the live set
	// variables and loaded relations; streaming runs count the in-flight
	// batch buffers, barrier materializations, loaded relations and the
	// accumulating answer. Bytes buffered at a source or inside a
	// streaming adapter play the server's role and are not mediator
	// memory.
	PeakBytes int
	// FirstAnswer is the wall-clock time from run start until the first
	// answer items existed: the first result batch in streaming mode, the
	// completed answer in materialized mode (where nothing is answerable
	// earlier). Zero when the run failed before producing any answer
	// items.
	FirstAnswer time.Duration
	// Trace is the per-step execution trace, present when the executor's
	// Trace flag is set, ordered by step index.
	Trace []StepTrace
	// Failovers and Hedges count replica-fabric activity across the run:
	// exchanges re-issued on another replica after a failure, and hedged
	// backup exchanges launched against stragglers. Zero for rosters
	// without replicated sources.
	Failovers int
	Hedges    int
	// FailedStep is the plan index of the first step that failed — the
	// minimum failed index when a parallel batch fails several steps — or
	// -1 when every executed step succeeded. Mid-query roster repair uses
	// it to locate the last completed round.
	FailedStep int
}

// Run executes the plan under ctx and returns the result. The plan's
// source names must match the executor's sources position by position.
//
// On failure — including cancellation and deadline expiry — the returned
// Result is still non-nil: its counters report the source queries, cache
// traffic and simulated work already performed, and Vars holds the set
// variables computed before the failure. The error wraps the cause, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) identify abandoned runs.
func (e *Executor) Run(ctx context.Context, p *plan.Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Sources) != len(e.Sources) {
		return nil, fmt.Errorf("exec: plan has %d sources, executor has %d", len(p.Sources), len(e.Sources))
	}
	for j, name := range p.Sources {
		if e.Sources[j].Name() != name {
			return nil, fmt.Errorf("exec: plan source %d is %q but executor has %q", j, name, e.Sources[j].Name())
		}
	}

	st := &state{
		vars:   map[string]set.Set{},
		loaded: map[string]*relation.Relation{},
	}
	res := &Result{Vars: st.vars, FailedStep: -1}
	conns := make([]int, len(e.Sources))
	for j := range e.Sources {
		conns[j] = e.connsFor(j)
	}
	e.sched = newScheduler(conns)

	if e.Streaming && e.records == nil {
		return e.runStreaming(ctx, p, st, res)
	}

	start := time.Now()
	// In materialized mode nothing is answerable before the run completes:
	// the first-answer phase spans the whole execution, which is exactly
	// the coupling streaming execution breaks.
	_, faSpan := obs.StartSpan(ctx, obs.KindPhase, "first-answer")

	finish := func(err error) (*Result, error) {
		res.Answer = st.vars[p.Result]
		e.lastLoaded = st.loaded
		st.mu.Lock()
		res.PeakBytes = st.peakBytes
		st.mu.Unlock()
		faSpan.End(err)
		if err == nil {
			res.FirstAnswer = time.Since(start)
			obs.Meter(ctx).Histogram(obs.MFirstAnswerSeconds).Observe(res.FirstAnswer.Seconds())
		}
		if e.Trace {
			sort.Slice(res.Trace, func(a, b int) bool { return res.Trace[a].Index < res.Trace[b].Index })
		}
		return res, err
	}

	steps := p.Steps
	for k := 0; k < len(steps); {
		if err := ctx.Err(); err != nil {
			return finish(fmt.Errorf("exec: %w", err))
		}
		if steps[k].IsSourceQuery() {
			// Every source-query step runs as a batch — a singleton in
			// sequential mode, a whole round of independent steps in
			// parallel mode — so accounting and scheduling are uniform:
			// an emulated semijoin's binding fan-out needs the k-lane
			// makespan accounting either way.
			end := k + 1
			if e.Parallel {
				end = e.batchEnd(p, steps, k)
			}
			if err := e.runBatch(ctx, p, steps, k, end, st, res); err != nil {
				return finish(err)
			}
			k = end
			continue
		}
		if err := e.runStepRetry(ctx, p, k, steps[k], st, res, nil); err != nil {
			return finish(err)
		}
		k++
	}
	return finish(nil)
}

// state is the mutable execution environment: set variables and loaded
// source contents, plus the live-bytes accounting behind Result.PeakBytes.
type state struct {
	mu     sync.Mutex
	vars   map[string]set.Set
	loaded map[string]*relation.Relation

	// liveBytes is the item bytes currently held in vars plus the bytes of
	// loaded relations; peakBytes is its high-water mark.
	liveBytes int
	peakBytes int
}

func (s *state) get(name string) (set.Set, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vars[name]
	return v, ok
}

func (s *state) setVar(name string, v set.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setVarLocked(name, v)
}

func (s *state) setVarLocked(name string, v set.Set) {
	if old, ok := s.vars[name]; ok {
		s.liveBytes -= old.Bytes()
	}
	s.vars[name] = v
	s.addBytesLocked(v.Bytes())
}

func (s *state) addBytesLocked(n int) {
	s.liveBytes += n
	if s.liveBytes > s.peakBytes {
		s.peakBytes = s.liveBytes
	}
}

// batchEnd finds the longest run of source-query steps starting at k whose
// inputs are independent of the batch's own outputs, so they may execute
// concurrently. This captures exactly one round's selection and semijoin
// queries in the canonical plans; difference-pruned chains serialize
// naturally because the interleaved diff steps are not source queries.
func (e *Executor) batchEnd(p *plan.Plan, steps []plan.Step, k int) int {
	outs := map[string]bool{}
	end := k
	for end < len(steps) {
		s := steps[end]
		if !s.IsSourceQuery() {
			break
		}
		dep := false
		for _, in := range s.In {
			if outs[in] {
				dep = true
			}
		}
		if dep {
			break
		}
		outs[s.Out] = true
		end++
	}
	return end
}

// runBatch executes source-query steps concurrently and accounts the batch
// critical path as its response-time contribution: each source contributes
// the makespan of its exchanges over its connection capacity, and the
// slowest source bounds the batch. Work already performed is charged even
// when the batch fails — counters and simulated time reflect the traffic
// that reached the sources.
func (e *Executor) runBatch(ctx context.Context, p *plan.Plan, steps []plan.Step, start, end int, st *state, res *Result) error {
	batch := steps[start:end]
	var preTotal time.Duration
	if e.Network != nil {
		preTotal = e.Network.Stats().TotalTime
		defer func() {
			// Total work accrues regardless of parallelism or failure. A
			// concurrent query's planning phase may reset the shared
			// network's accounting mid-batch (the documented approximation
			// for concurrent mediator queries), so never charge a negative
			// delta.
			if d := e.Network.Stats().TotalTime - preTotal; d > 0 {
				res.TotalWork += d
			}
		}()
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		mark     netsim.Mark
	)
	if e.Network != nil {
		mark = e.Network.Mark()
	}
	for i := range batch {
		wg.Add(1)
		go func(idx int, s plan.Step) {
			defer wg.Done()
			err := e.runStepRetry(ctx, p, idx, s, st, res, &mu)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(start+i, batch[i])
	}
	wg.Wait()
	if e.Network != nil {
		critical, owners := e.criticalPath(e.Network.Since(mark))
		res.ResponseTime += critical
		if e.Trace {
			e.attributeElapsed(res, steps, start, end, owners)
		}
	}
	return firstErr
}

// replicaSource is the fabric's accounting face: a logical source exposing
// its physical endpoints' connection capacities.
type replicaSource interface {
	ReplicaConns() map[string]int
}

// criticalPath is the response-time contribution of a window of the exchange
// log: the slowest lane's makespan over its connection capacity. owners is
// exchangeGroups' per-logical-source roll-up of the same window.
func (e *Executor) criticalPath(entries []netsim.Exchange) (critical time.Duration, owners map[string][]time.Duration) {
	lanes, owners, laneConns := e.exchangeGroups(entries)
	for name, durs := range lanes {
		if d := netsim.Makespan(durs, laneConns[name]); d > critical {
			critical = d
		}
	}
	return critical, owners
}

// exchangeGroups buckets a slice of the exchange log two ways. lanes feeds
// makespan accounting: one lane per physical endpoint in parallel and
// streaming modes (each endpoint owns its connection pool), collapsed into
// the owning logical source at one connection in sequential mode so the
// sequential TotalWork == ResponseTime identity survives failover and
// hedging. owners rolls every endpoint up to its logical source for
// per-step elapsed attribution, which matches plan steps by logical name.
func (e *Executor) exchangeGroups(entries []netsim.Exchange) (lanes, owners map[string][]time.Duration, laneConns map[string]int) {
	seq := !e.Parallel && !e.Streaming
	owner := map[string]string{}
	laneConns = map[string]int{}
	for j, src := range e.Sources {
		name := src.Name()
		laneConns[name] = e.connsFor(j)
		if rc, ok := src.(replicaSource); ok {
			for epName, k := range rc.ReplicaConns() {
				owner[epName] = name
				if seq {
					laneConns[epName] = 1
				} else {
					if e.Conns > 0 {
						k = e.Conns
					}
					laneConns[epName] = k
				}
			}
		}
	}
	lanes = map[string][]time.Duration{}
	owners = map[string][]time.Duration{}
	for _, ex := range entries {
		own := ex.Source
		if o, ok := owner[ex.Source]; ok {
			own = o
		}
		owners[own] = append(owners[own], ex.Elapsed)
		lane := ex.Source
		if seq {
			lane = own
		}
		lanes[lane] = append(lanes[lane], ex.Elapsed)
	}
	return lanes, owners, laneConns
}

// attributeElapsed fixes up the batch's step traces from the exchange log:
// each step is charged the exchange time of its source during the batch.
// When several batch steps share one source (non-canonical plans), the
// source's time is split pro rata by issued queries.
func (e *Executor) attributeElapsed(res *Result, steps []plan.Step, start, end int, perSource map[string][]time.Duration) {
	byIdx := map[int]*StepTrace{}
	for i := range res.Trace {
		byIdx[res.Trace[i].Index] = &res.Trace[i]
	}
	for name, durs := range perSource {
		var total time.Duration
		for _, d := range durs {
			total += d
		}
		var entries []*StepTrace
		queries := 0
		for k := start; k < end; k++ {
			if e.Sources[steps[k].Source].Name() != name {
				continue
			}
			if tr := byIdx[k]; tr != nil {
				entries = append(entries, tr)
				queries += tr.Queries
			}
		}
		switch {
		case len(entries) == 1:
			entries[0].Elapsed = total
		case len(entries) > 1 && queries > 0:
			for _, tr := range entries {
				tr.Elapsed = total * time.Duration(tr.Queries) / time.Duration(queries)
			}
		case len(entries) > 1:
			for _, tr := range entries {
				tr.Elapsed = total / time.Duration(len(entries))
			}
		}
	}
}

// runStepRetry runs one step to completion, re-issuing it on transient
// source failures up to the executor's retry budget. Source queries are
// reads, so retries are safe; the extra traffic of a failed attempt is
// genuine extra work and stays charged. Emulated semijoins are excluded
// from the whole-step budget: their retry is per binding query inside
// emulatedSemijoin, so one flaky binding never re-issues the bindings that
// already succeeded. Context errors are not transient, so cancellation ends
// the loop at once.
//
// The step is wrapped in a step span; re-attempts after a transient failure
// get attempt spans beneath it. Counters and the step trace aggregate over
// all attempts; failed steps appear in the trace with Err set. mu, when
// non-nil, guards the shared Result during batches.
func (e *Executor) runStepRetry(ctx context.Context, p *plan.Plan, idx int, s plan.Step, st *state, res *Result, mu *sync.Mutex) error {
	budget := 0
	isSource := s.IsSourceQuery()
	var srcName string
	if isSource {
		srcName = e.Sources[s.Source].Name()
		budget = e.Retries
		if s.Kind == plan.KindSemijoin {
			if caps := e.Sources[s.Source].Caps(); !caps.NativeSemijoin && caps.PassedBindings {
				budget = 0
			}
		}
	}
	text := p.StepString(s)
	sctx, span := obs.StartSpan(ctx, obs.KindStep, text)
	if isSource {
		span.SetAttr("source", srcName)
	}
	// A replicated source's failovers and hedges are attributed to this
	// step through context-carried call stats.
	var cs *fabric.CallStats
	if isSource {
		if _, ok := e.Sources[s.Source].(replicaSource); ok {
			cs = &fabric.CallStats{}
			sctx = fabric.WithCallStats(sctx, cs)
		}
	}

	var agg queryStats
	var stepErr error
	for attempt := 0; ; attempt++ {
		actx := sctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(sctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		qs, err := e.execStep(actx, p, s, st)
		asp.End(err)
		agg.add(qs)
		stepErr = err
		if err == nil {
			break
		}
		agg.errors++
		if attempt >= budget || !source.IsTransient(err) {
			break
		}
		// A transient failure is only worth retrying while the caller still
		// wants the answer: once ctx is done, stop with the context error so
		// fault sweeps cannot burn the whole retry budget after cancellation.
		if cerr := ctx.Err(); cerr != nil {
			stepErr = fmt.Errorf("exec: %s: %w", text, cerr)
			break
		}
		agg.retries++
	}
	span.End(stepErr)

	if isSource {
		met := obs.Meter(ctx)
		met.Counter(obs.MSourceQueries, "source", srcName).Add(int64(agg.queries))
		met.Counter(obs.MCacheHits, "source", srcName).Add(int64(agg.hits))
		met.Counter(obs.MCacheMisses, "source", srcName).Add(int64(agg.misses))
		met.Counter(obs.MRetries, "source", srcName).Add(int64(agg.retries))
		if stepErr != nil {
			met.Counter(obs.MStepErrors, "source", srcName).Inc()
		}
	}

	var failovers, hedges int
	if cs != nil {
		failovers = int(cs.Failovers.Load())
		hedges = int(cs.Hedges.Load())
	}
	if agg != (queryStats{}) || e.Trace || failovers+hedges > 0 || stepErr != nil {
		if mu != nil {
			mu.Lock()
		}
		res.SourceQueries += agg.queries
		res.CacheHits += agg.hits
		res.CacheMisses += agg.misses
		res.Retries += agg.retries
		res.Failovers += failovers
		res.Hedges += hedges
		if stepErr != nil && (res.FailedStep < 0 || idx < res.FailedStep) {
			res.FailedStep = idx
		}
		if e.Trace {
			tr := StepTrace{Index: idx, Text: text, Queries: agg.queries, CacheHits: agg.hits, Retries: agg.retries, Errors: agg.errors, Failovers: failovers, Hedges: hedges}
			if stepErr != nil {
				tr.Err = stepErr.Error()
			} else if v, ok := st.get(s.Out); ok {
				tr.OutItems = v.Len()
			}
			res.Trace = append(res.Trace, tr)
		}
		if mu != nil {
			mu.Unlock()
		}
	}
	return stepErr
}

// execStep performs the step's operation, returning its query statistics
// alongside any error — the statistics are meaningful in both cases.
func (e *Executor) execStep(ctx context.Context, p *plan.Plan, s plan.Step, st *state) (queryStats, error) {
	var qs queryStats
	switch s.Kind {
	case plan.KindSelect:
		src := e.Sources[s.Source]
		if e.records != nil && s.Cond == e.finalCond {
			release, err := e.slot(ctx, s.Source)
			if err != nil {
				return qs, fmt.Errorf("exec: %s: source %s: %w", p.StepString(s), src.Name(), err)
			}
			tuples, err := src.SelectRecords(ctx, p.Conds[s.Cond])
			release()
			qs.queries = 1
			if err != nil {
				return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
			}
			e.cacheRecords(s.Source, tuples, src.Schema().MergeIndex())
			st.setVar(s.Out, itemsOf(tuples, src.Schema().MergeIndex()))
			break
		}
		out, q, err := e.selectQuery(ctx, s.Source, p.Conds[s.Cond])
		qs = q
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, out)
	case plan.KindSemijoin:
		src := e.Sources[s.Source]
		in, ok := st.get(s.In[0])
		if !ok {
			return qs, fmt.Errorf("exec: %s: undefined input %q", p.StepString(s), s.In[0])
		}
		if in.IsEmpty() {
			// Runtime short-circuit: a semijoin over the empty set is
			// empty without asking the source. Once a running set drains,
			// every later semijoin round costs nothing.
			st.setVar(s.Out, set.Empty)
			break
		}
		if e.records != nil && s.Cond == e.finalCond && src.Caps().NativeSemijoin {
			release, err := e.slot(ctx, s.Source)
			if err != nil {
				return qs, fmt.Errorf("exec: %s: source %s: %w", p.StepString(s), src.Name(), err)
			}
			tuples, err := src.SemijoinRecords(ctx, p.Conds[s.Cond], in)
			release()
			qs.queries = 1
			if err != nil {
				return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
			}
			e.cacheRecords(s.Source, tuples, src.Schema().MergeIndex())
			st.setVar(s.Out, itemsOf(tuples, src.Schema().MergeIndex()))
			break
		}
		out, q, err := e.semijoinQuery(ctx, s.Source, p.Conds[s.Cond], in)
		qs = q
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, out)
	case plan.KindBloomSemijoin:
		src := e.Sources[s.Source]
		in, ok := st.get(s.In[0])
		if !ok {
			return qs, fmt.Errorf("exec: %s: undefined input %q", p.StepString(s), s.In[0])
		}
		if in.IsEmpty() {
			st.setVar(s.Out, set.Empty)
			break
		}
		filter := bloom.FromItems(in.Items(), bloom.DefaultBitsPerItem)
		release, err := e.slot(ctx, s.Source)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: source %s: %w", p.StepString(s), src.Name(), err)
		}
		positives, err := src.SemijoinBloom(ctx, p.Conds[s.Cond], filter)
		release()
		qs.queries = 1
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		// Discard the filter's false positives: the exact semijoin result
		// is the positives restricted to the actual set.
		st.setVar(s.Out, positives.Intersect(in))
	case plan.KindLoad:
		src := e.Sources[s.Source]
		release, err := e.slot(ctx, s.Source)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: source %s: %w", p.StepString(s), src.Name(), err)
		}
		rel, err := src.Load(ctx)
		release()
		qs.queries = 1
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.mu.Lock()
		st.loaded[s.Out] = rel
		st.setVarLocked(s.Out, set.FromSorted(rel.Items()))
		st.addBytesLocked(rel.Bytes())
		st.mu.Unlock()
	case plan.KindLocalSelect:
		st.mu.Lock()
		rel, ok := st.loaded[s.In[0]]
		st.mu.Unlock()
		if !ok {
			return qs, fmt.Errorf("exec: %s: %q is not loaded source contents", p.StepString(s), s.In[0])
		}
		out, err := localSelect(rel, p, s.Cond)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, out)
	case plan.KindUnion:
		sets, err := st.gather(s.In)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, set.UnionAll(sets...))
	case plan.KindIntersect:
		sets, err := st.gather(s.In)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, set.IntersectAll(sets...))
	case plan.KindDiff:
		sets, err := st.gather(s.In)
		if err != nil {
			return qs, fmt.Errorf("exec: %s: %w", p.StepString(s), err)
		}
		st.setVar(s.Out, sets[0].Diff(sets[1]))
	default:
		return qs, fmt.Errorf("exec: unknown step kind %v", s.Kind)
	}
	return qs, nil
}

func (st *state) gather(names []string) ([]set.Set, error) {
	out := make([]set.Set, len(names))
	for i, name := range names {
		v, ok := st.get(name)
		if !ok {
			return nil, fmt.Errorf("undefined variable %q", name)
		}
		out[i] = v
	}
	return out, nil
}

// itemsOf extracts the distinct merge-attribute items of tuples, sorted. The
// tuples of a record-returning exchange arrive in no item order, so set.New
// sorts and deduplicates them.
func itemsOf(tuples []relation.Tuple, mergeIdx int) set.Set {
	items := make([]string, len(tuples))
	for i, t := range tuples {
		items[i] = t[mergeIdx].Raw()
	}
	return set.New(items...)
}

// localSelect applies condition ci of the plan to loaded source contents,
// returning the matching items: the selection a row-store wrapper over the
// loaded relation would answer. Local computation is free in the cost model
// (Section 2.4).
func localSelect(rel *relation.Relation, p *plan.Plan, ci int) (set.Set, error) {
	return source.SelectItems(source.NewRowBackend(rel), p.Conds[ci])
}

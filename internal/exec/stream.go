package exec

// Streaming dataflow execution. Instead of materializing every set
// variable, runStreaming turns the plan into a pipeline: one goroutine per
// step, connected by bounded batch channels carrying sorted item batches
// (the set.Iter contract). Source selections are consumed chunk by chunk
// through source.OpenSelectStream, semijoins fan out per input batch as
// bindings arrive, and the local ∪/∩/− operators are the incremental
// merges of internal/set — so the first answer batch can exist long before
// the last source exchange completes, and peak mediator memory is bounded
// batch buffers rather than whole intermediate variables.
//
// Invariants shared with the materialized path:
//
//   - The answer is bit-for-bit identical: every edge carries each
//     variable's items in strictly increasing order with no duplicates, so
//     set.FromSorted over the drained answer equals the materialized
//     result variable.
//   - Honest partials: a failed or cancelled run returns an empty Answer
//     and an error, with counters reporting the traffic already paid for.
//     A node failure cancels the run context; downstream nodes observe
//     either the cancellation or their producer's closed edge, and the
//     truncated answer is discarded.
//   - Accounting: TotalWork is the network delta over the run,
//     ResponseTime the per-source k-lane makespan of the run's exchanges
//     (the whole run is one "round" — the pipeline overlaps everything the
//     data dependencies allow).
//
// Deadlock freedom: a node holds a scheduler slot only for the duration of
// one exchange (the open or one chunk pull), never across an emit — so
// consumer backpressure cannot starve same-source exchanges of later
// steps. Abandonment propagates upstream: when every consumer of a node's
// output has closed its edge (e.g. an intersect short-circuited on an
// exhausted input), the node stops cleanly without draining its source.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// streamEdgeDepth is the per-edge buffer in batches. Small: the buffer
// exists to decouple producer and consumer scheduling jitter, not to
// materialize intermediates.
const streamEdgeDepth = 2

// ssaSteps rewrites the plan's straight-line steps into single-assignment
// form. plan.Validate permits reassignment — the canonical plans use it
// freely (X2 := X2 ∩ X1) — but a dataflow node graph needs exactly one
// producer per variable, so each reassignment gets a fresh version name
// and later uses resolve to the version current at that point. Returns the
// rewritten steps and the version holding the plan's result.
func ssaSteps(p *plan.Plan) ([]plan.Step, string) {
	cur := make(map[string]string, len(p.Steps))
	defined := make(map[string]bool, len(p.Steps))
	steps := make([]plan.Step, len(p.Steps))
	for i, s := range p.Steps {
		ns := s
		ns.In = make([]string, len(s.In))
		for k, v := range s.In {
			ns.In[k] = cur[v]
		}
		out := s.Out
		for defined[out] {
			out = fmt.Sprintf("%s#%d", out, i)
		}
		defined[out] = true
		cur[s.Out] = out
		ns.Out = out
		steps[i] = ns
	}
	return steps, cur[p.Result]
}

// batchSize resolves the executor's streaming batch granularity.
func (e *Executor) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return set.DefaultBatch
}

// byteTracker is the live-bytes accounting behind streaming PeakBytes:
// bytes are added when a batch enters mediator memory (buffered on an
// edge, materialized at a barrier, appended to the answer) and released
// when it leaves.
type byteTracker struct {
	mu   sync.Mutex
	cur  int
	peak int
}

func (b *byteTracker) add(n int) {
	b.mu.Lock()
	b.cur += n
	if b.cur > b.peak {
		b.peak = b.cur
	}
	b.mu.Unlock()
}

func (b *byteTracker) release(n int) {
	b.mu.Lock()
	b.cur -= n
	b.mu.Unlock()
}

func (b *byteTracker) high() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

func batchBytes(batch []string) int {
	n := 0
	for _, v := range batch {
		n += len(v)
	}
	return n
}

// streamEdge is one producer→consumer arc of the dataflow graph: a
// single-producer single-consumer batch queue. Single-consumer edges are
// bounded to streamEdgeDepth batches — that bound is the pipeline's
// backpressure. Fan-out edges (a variable with several consumers) are
// unbounded, and must be: with a bounded tee, one full edge stops the
// producer from feeding the variable's other consumers, and on a
// reconvergent plan DAG those mutual waits form a cycle (the classic
// bounded-buffer multicast deadlock). Unbounded tees make a producer block
// only ever on its sole consumer's edge, where "producer waits because the
// edge is full" and "consumer waits because the edge is empty" cannot
// coexist — so the wait-for graph is acyclic and the dataflow cannot
// deadlock. The skew a tee buffers is real mediator memory and is tracked
// in PeakBytes.
type streamEdge struct {
	tr    *byteTracker
	bound int // max buffered batches; 0 = unbounded (fan-out edges)

	mu        sync.Mutex
	buf       [][]string
	closed    bool
	abandoned bool
	sendKick  chan struct{} // capacity 1: consumer → producer wakeups
	recvKick  chan struct{} // capacity 1: producer → consumer wakeups
}

func newStreamEdge(tr *byteTracker) *streamEdge {
	return &streamEdge{
		tr:       tr,
		bound:    streamEdgeDepth,
		sendKick: make(chan struct{}, 1),
		recvKick: make(chan struct{}, 1),
	}
}

// kickOne wakes the other side without blocking; the capacity-1 channel
// latches the signal, and the woken side re-checks state in a loop, so a
// wakeup is never lost.
func kickOne(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// send delivers batch to the consumer, blocking under backpressure on a
// bounded edge. It returns delivered=false when the consumer abandoned the
// edge (the batch is dropped), and an error only for context cancellation.
func (ed *streamEdge) send(ctx context.Context, batch []string) (bool, error) {
	for {
		ed.mu.Lock()
		if ed.abandoned {
			ed.mu.Unlock()
			return false, nil
		}
		if ed.bound == 0 || len(ed.buf) < ed.bound {
			ed.buf = append(ed.buf, batch)
			ed.mu.Unlock()
			ed.tr.add(batchBytes(batch))
			kickOne(ed.recvKick)
			return true, nil
		}
		ed.mu.Unlock()
		select {
		case <-ed.sendKick:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// closeSend marks end-of-stream; the consumer sees EOF after draining.
func (ed *streamEdge) closeSend() {
	ed.mu.Lock()
	ed.closed = true
	ed.mu.Unlock()
	kickOne(ed.recvKick)
}

// recv pops the next batch, waiting for the producer when the edge is
// empty. (nil, nil) is EOF.
func (ed *streamEdge) recv(ctx context.Context) ([]string, error) {
	for {
		ed.mu.Lock()
		if len(ed.buf) > 0 {
			batch := ed.buf[0]
			ed.buf = ed.buf[1:]
			ed.mu.Unlock()
			ed.tr.release(batchBytes(batch))
			kickOne(ed.sendKick)
			return batch, nil
		}
		if ed.closed {
			ed.mu.Unlock()
			return nil, nil
		}
		ed.mu.Unlock()
		select {
		case <-ed.recvKick:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// abandonNow marks the edge abandoned (idempotent), releases whatever the
// producer buffered, and unblocks the producer so it can observe the
// abandonment.
func (ed *streamEdge) abandonNow() {
	ed.mu.Lock()
	if !ed.abandoned {
		ed.abandoned = true
		for _, b := range ed.buf {
			ed.tr.release(batchBytes(b))
		}
		ed.buf = nil
	}
	ed.mu.Unlock()
	kickOne(ed.sendKick)
}

// edgeIter adapts the consuming end of an edge to the set.Iter contract,
// so merge operators and Collect run directly over dataflow edges. Close
// abandons the edge; the short-circuit of an incremental intersect thereby
// propagates upstream as producer abandonment.
type edgeIter struct {
	ed *streamEdge
}

func (it *edgeIter) Next(ctx context.Context) ([]string, error) {
	return it.ed.recv(ctx)
}

func (it *edgeIter) Close() error {
	it.ed.abandonNow()
	return nil
}

// errAbandoned is the internal signal that every consumer of a node's
// output has abandoned its edge: the node stops producing and reports
// clean completion.
var errAbandoned = errors.New("exec: all stream consumers abandoned")

// emitter tees a node's output batches to its consumer edges, tracking
// which consumers have abandoned and the node's emission totals.
type emitter struct {
	outs    []*streamEdge
	dead    []bool
	live    int
	items   int
	batches int
}

func newEmitter(outs []*streamEdge) *emitter {
	return &emitter{outs: outs, dead: make([]bool, len(outs)), live: len(outs)}
}

// emit delivers one non-empty batch to every live consumer. Empty batches
// are dropped (the Iter contract forbids them on edges). Returns
// errAbandoned once no consumer remains, so producers stop paying for
// unwanted work. The tee never blocks on one consumer while starving
// another: an edge that is part of a fan-out is unbounded (see
// streamEdge), so the only blocking send is to a sole consumer.
func (em *emitter) emit(ctx context.Context, batch []string) error {
	if len(batch) == 0 {
		return nil
	}
	em.items += len(batch)
	em.batches++
	for i, ed := range em.outs {
		if em.dead[i] {
			continue
		}
		delivered, err := ed.send(ctx, batch)
		if err != nil {
			return err
		}
		if !delivered {
			em.dead[i] = true
			em.live--
		}
	}
	if em.live == 0 && len(em.outs) > 0 {
		return errAbandoned
	}
	return nil
}

// emitSorted streams a sorted, deduplicated slice as batches.
func (em *emitter) emitSorted(ctx context.Context, items []string, batch int) error {
	for lo := 0; lo < len(items); lo += batch {
		hi := lo + batch
		if hi > len(items) {
			hi = len(items)
		}
		if err := em.emit(ctx, items[lo:hi:hi]); err != nil {
			return err
		}
	}
	return nil
}

// streamRun is the shared state of one dataflow execution.
type streamRun struct {
	e   *Executor
	p   *plan.Plan
	st  *state
	res *Result

	ctx    context.Context
	cancel context.CancelFunc
	tr     *byteTracker

	wg sync.WaitGroup

	mu       sync.Mutex // guards res and firstErr across nodes
	firstErr error
}

// fail records the run's first error and cancels the pipeline. Recording
// before cancelling guarantees the causal error wins the race against the
// cancellation errors it triggers downstream.
func (r *streamRun) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

// runStreaming executes p as a dataflow pipeline. Called by Run after plan
// validation and scheduler setup; st and res are the prepared execution
// state and result.
func (e *Executor) runStreaming(ctx context.Context, p *plan.Plan, st *state, res *Result) (*Result, error) {
	start := time.Now()
	var preTotal time.Duration
	var mark netsim.Mark
	if e.Network != nil {
		preTotal = e.Network.Stats().TotalTime
		mark = e.Network.Mark()
		defer func() {
			// As in runBatch: charge the network delta, clamped against a
			// concurrent query's mid-run accounting reset.
			if d := e.Network.Stats().TotalTime - preTotal; d > 0 {
				res.TotalWork += d
			}
		}()
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &streamRun{
		e: e, p: p, st: st, res: res,
		ctx: rctx, cancel: cancel, tr: &byteTracker{},
	}

	// Rewrite to single-assignment form so every variable version has
	// exactly one producing node, then wire the graph: one edge per
	// (consumer step, input occurrence), plus the answer drain consumed
	// below. A version with several consumers has its batches teed to each
	// edge by the producer's emitter.
	steps, resultVar := ssaSteps(p)
	consumers := map[string][]*streamEdge{}
	stepIns := make([][]*streamEdge, len(steps))
	for i, s := range steps {
		ins := make([]*streamEdge, len(s.In))
		for k, v := range s.In {
			ed := newStreamEdge(r.tr)
			ins[k] = ed
			consumers[v] = append(consumers[v], ed)
		}
		stepIns[i] = ins
	}
	answerEdge := newStreamEdge(r.tr)
	consumers[resultVar] = append(consumers[resultVar], answerEdge)
	for _, edges := range consumers {
		if len(edges) > 1 {
			// Fan-out: unbounded edges, the deadlock-freedom invariant.
			for _, ed := range edges {
				ed.bound = 0
			}
		}
	}

	_, faSpan := obs.StartSpan(ctx, obs.KindPhase, "first-answer")

	for i := range steps {
		r.wg.Add(1)
		go func(idx int, s plan.Step) {
			defer r.wg.Done()
			r.node(idx, s, stepIns[idx], consumers[s.Out])
		}(i, steps[i])
	}

	// Drain the answer on this goroutine. The accumulated answer is
	// mediator memory for the rest of the run, so its bytes stay tracked.
	met := obs.Meter(ctx)
	ait := &edgeIter{ed: answerEdge}
	var answer []string
	var drainErr error
	for {
		batch, err := ait.Next(rctx)
		if err != nil {
			drainErr = fmt.Errorf("exec: %w", err)
			break
		}
		if batch == nil {
			break
		}
		if answer == nil {
			res.FirstAnswer = time.Since(start)
			faSpan.End(nil)
			met.Histogram(obs.MFirstAnswerSeconds).Observe(res.FirstAnswer.Seconds())
		}
		r.tr.add(batchBytes(batch))
		answer = append(answer, batch...)
	}
	_ = ait.Close()
	r.wg.Wait()

	r.mu.Lock()
	err := r.firstErr
	r.mu.Unlock()
	if err == nil {
		// All nodes finished cleanly; a drain-side cancellation still
		// truncates the answer and must fail the run honestly.
		err = drainErr
	}
	if answer == nil {
		// No batch arrived: close the first-answer phase with the outcome
		// (nil for a legitimately empty answer).
		faSpan.End(err)
		if err == nil {
			res.FirstAnswer = time.Since(start)
			met.Histogram(obs.MFirstAnswerSeconds).Observe(res.FirstAnswer.Seconds())
		}
	}
	if err == nil {
		st.setVar(p.Result, set.FromSorted(answer))
		res.Answer = st.vars[p.Result]
	}

	if e.Network != nil {
		// The pipeline is one big round: response time is the critical path
		// over the per-source k-lane schedules of the whole run's exchanges.
		res.ResponseTime, _ = e.criticalPath(e.Network.Since(mark))
	}

	res.PeakBytes = r.tr.high()
	e.mu.Lock()
	e.lastLoaded = st.loaded
	e.mu.Unlock()
	if e.Trace {
		sort.Slice(res.Trace, func(a, b int) bool { return res.Trace[a].Index < res.Trace[b].Index })
	}
	return res, err
}

// node runs one plan step as a dataflow node: execute the kind-specific
// body, then always close the output edges (EOF for consumers) and abandon
// the input edges (stop for producers), and account the step exactly like
// the materialized runStepRetry — step span, per-source metrics, result
// counters and trace entry.
func (r *streamRun) node(idx int, s plan.Step, ins []*streamEdge, outs []*streamEdge) {
	e := r.e
	// Spans and traces show the original step, not its SSA rename.
	text := r.p.StepString(r.p.Steps[idx])
	sctx, span := obs.StartSpan(r.ctx, obs.KindStep, text)
	isSource := s.IsSourceQuery()
	srcName := ""
	if isSource {
		srcName = e.Sources[s.Source].Name()
		span.SetAttr("source", srcName)
	}
	// A replicated source's failovers and hedges are attributed to this
	// node through context-carried call stats, as in the materialized path.
	var cs *fabric.CallStats
	if isSource {
		if _, ok := e.Sources[s.Source].(replicaSource); ok {
			cs = &fabric.CallStats{}
			sctx = fabric.WithCallStats(sctx, cs)
		}
	}

	em := newEmitter(outs)
	var agg queryStats
	err := r.execNode(sctx, s, ins, em, &agg)
	if errors.Is(err, errAbandoned) {
		// Nobody wants the rest of this stream — clean early completion.
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("exec: %s: %w", text, err)
	}
	for _, ed := range outs {
		ed.closeSend()
	}
	for _, ed := range ins {
		ed.abandonNow()
	}
	span.End(err)

	met := obs.Meter(r.ctx)
	if isSource {
		met.Counter(obs.MSourceQueries, "source", srcName).Add(int64(agg.queries))
		met.Counter(obs.MCacheHits, "source", srcName).Add(int64(agg.hits))
		met.Counter(obs.MCacheMisses, "source", srcName).Add(int64(agg.misses))
		met.Counter(obs.MRetries, "source", srcName).Add(int64(agg.retries))
		if err != nil {
			met.Counter(obs.MStepErrors, "source", srcName).Inc()
		}
	}
	if em.batches > 0 {
		met.Counter(obs.MStreamBatches, "source", srcName).Add(int64(em.batches))
	}

	var failovers, hedges int
	if cs != nil {
		failovers = int(cs.Failovers.Load())
		hedges = int(cs.Hedges.Load())
	}
	r.mu.Lock()
	r.res.SourceQueries += agg.queries
	r.res.CacheHits += agg.hits
	r.res.CacheMisses += agg.misses
	r.res.Retries += agg.retries
	r.res.Failovers += failovers
	r.res.Hedges += hedges
	if err != nil && (r.res.FailedStep < 0 || idx < r.res.FailedStep) {
		r.res.FailedStep = idx
	}
	if e.Trace {
		tr := StepTrace{Index: idx, Text: text, Queries: agg.queries, CacheHits: agg.hits, Retries: agg.retries, Errors: agg.errors, Failovers: failovers, Hedges: hedges}
		if err != nil {
			tr.Err = err.Error()
		} else {
			tr.OutItems = em.items
		}
		r.res.Trace = append(r.res.Trace, tr)
	}
	r.mu.Unlock()

	if err != nil {
		r.fail(err)
	}
}

// execNode dispatches on the step kind. Errors come back unwrapped; node
// adds the step prefix.
func (r *streamRun) execNode(ctx context.Context, s plan.Step, ins []*streamEdge, em *emitter, agg *queryStats) error {
	switch s.Kind {
	case plan.KindSelect:
		return r.selectNode(ctx, s, em, agg)
	case plan.KindSemijoin:
		return r.semijoinNode(ctx, s, ins, em, agg)
	case plan.KindBloomSemijoin:
		return r.bloomNode(ctx, s, ins, em, agg)
	case plan.KindLoad:
		return r.loadNode(ctx, s, em, agg)
	case plan.KindLocalSelect:
		return r.localSelectNode(ctx, s, ins, em)
	case plan.KindUnion, plan.KindIntersect, plan.KindDiff:
		return r.mergeNode(ctx, s, ins, em)
	default:
		return fmt.Errorf("unknown step kind %v", s.Kind)
	}
}

// selectNode streams sq(c, src) batch by batch. A cached selection is
// emitted without source traffic; a miss opens a chunked stream and, with
// a cache attached, collects the batches on the side so the completed
// selection can be cached for later runs. The whole-stream retry budget
// applies only while nothing has been emitted yet: once batches are
// downstream a transient mid-stream failure cannot be retried without
// re-emitting, so it fails the step (and the run stays honest).
func (r *streamRun) selectNode(ctx context.Context, s plan.Step, em *emitter, agg *queryStats) error {
	e := r.e
	src := e.Sources[s.Source]
	c := r.p.Conds[s.Cond]
	if out, ok := e.Cache.Select(src.Name(), c); ok {
		agg.hits++
		return em.emitSorted(ctx, out.Items(), e.batchSize())
	}
	var collected []string
	collect := e.Cache != nil
	emitted := false
	for attempt := 0; ; attempt++ {
		actx := ctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(ctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		err := r.drainSelect(actx, s.Source, c, em, agg, &emitted, &collected, collect)
		asp.End(err)
		if err == nil {
			break
		}
		if errors.Is(err, errAbandoned) {
			return err
		}
		agg.errors++
		if emitted || attempt >= e.Retries || !source.IsTransient(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("source %s: %w", src.Name(), cerr)
		}
		agg.retries++
		collected = collected[:0]
	}
	if collect {
		e.Cache.PutSelect(src.Name(), c, set.FromSorted(collected))
	}
	return nil
}

// drainSelect is one attempt at streaming the selection: open, pull, emit.
// A scheduler slot brackets the open and each chunk pull — one slot per
// exchange — and is released before emitting, so backpressure never holds
// a source lane.
func (r *streamRun) drainSelect(ctx context.Context, j int, c cond.Cond, em *emitter, agg *queryStats, emitted *bool, collected *[]string, collect bool) error {
	e := r.e
	src := e.Sources[j]
	release, err := e.slot(ctx, j)
	if err != nil {
		return fmt.Errorf("source %s: %w", src.Name(), err)
	}
	it, err := source.OpenSelectStream(ctx, src, c, e.batchSize())
	release()
	agg.queries++
	agg.misses += boolToInt(e.Cache != nil)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		release, err := e.slot(ctx, j)
		if err != nil {
			return fmt.Errorf("source %s: %w", src.Name(), err)
		}
		batch, err := it.Next(ctx)
		release()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		if collect {
			*collected = append(*collected, batch...)
		}
		if err := em.emit(ctx, batch); err != nil {
			return err
		}
		*emitted = true
	}
}

// semijoinNode evaluates sjq(c, src, Y) incrementally: each input batch is
// one semijoin probe, issued as the batch arrives. Output order is
// preserved because a probe's matches are a subset of its input batch and
// batches arrive in increasing item order. Native semijoins retry per
// probe (nothing of a failed probe was emitted); emulated semijoins retry
// per binding inside emulatedSemijoin, exactly like the materialized path.
func (r *streamRun) semijoinNode(ctx context.Context, s plan.Step, ins []*streamEdge, em *emitter, agg *queryStats) error {
	e := r.e
	src := e.Sources[s.Source]
	c := r.p.Conds[s.Cond]
	caps := src.Caps()
	if !caps.NativeSemijoin && !caps.PassedBindings {
		return fmt.Errorf("source %s: semijoin not emulable: %w", src.Name(), source.ErrUnsupported)
	}
	in := &edgeIter{ed: ins[0]}
	defer in.Close()
	for {
		batch, err := in.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		y := set.FromSorted(batch)
		var out set.Set
		if caps.NativeSemijoin {
			out, err = r.nativeProbe(ctx, s.Source, c, y, agg)
		} else {
			var qs queryStats
			out, qs, err = e.emulatedSemijoin(ctx, s.Source, c, y)
			agg.add(qs)
		}
		if err != nil {
			return err
		}
		if err := em.emit(ctx, out.Items()); err != nil {
			return err
		}
	}
}

// nativeProbe issues one native sjq for a single input batch with the
// whole-exchange transient-retry budget.
func (r *streamRun) nativeProbe(ctx context.Context, j int, c cond.Cond, y set.Set, agg *queryStats) (set.Set, error) {
	e := r.e
	for attempt := 0; ; attempt++ {
		actx := ctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(ctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		out, qs, err := e.nativeSemijoin(actx, j, c, y)
		asp.End(err)
		agg.add(qs)
		if err == nil {
			return out, nil
		}
		agg.errors++
		if attempt >= e.Retries || !source.IsTransient(err) {
			return set.Set{}, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return set.Set{}, fmt.Errorf("source %s: %w", e.Sources[j].Name(), cerr)
		}
		agg.retries++
	}
}

// bloomNode is a pipeline barrier: the Bloom filter needs the complete
// input set before the single filter exchange can be issued. The input is
// materialized (tracked as mediator memory for the node's lifetime), the
// filter probe retried like any whole exchange, and the exact result —
// positives restricted to the actual input — streamed out.
func (r *streamRun) bloomNode(ctx context.Context, s plan.Step, ins []*streamEdge, em *emitter, agg *queryStats) error {
	e := r.e
	src := e.Sources[s.Source]
	c := r.p.Conds[s.Cond]
	in, err := set.Collect(ctx, &edgeIter{ed: ins[0]})
	if err != nil {
		return err
	}
	if in.IsEmpty() {
		return nil
	}
	r.tr.add(in.Bytes())
	defer r.tr.release(in.Bytes())
	filter := bloom.FromItems(in.Items(), bloom.DefaultBitsPerItem)
	var positives set.Set
	for attempt := 0; ; attempt++ {
		actx := ctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(ctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		var release func()
		release, err = e.slot(actx, s.Source)
		if err != nil {
			asp.End(err)
			return fmt.Errorf("source %s: %w", src.Name(), err)
		}
		positives, err = src.SemijoinBloom(actx, c, filter)
		release()
		agg.queries++
		asp.End(err)
		if err == nil {
			break
		}
		agg.errors++
		if attempt >= e.Retries || !source.IsTransient(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("source %s: %w", src.Name(), cerr)
		}
		agg.retries++
	}
	return em.emitSorted(ctx, positives.Intersect(in).Items(), e.batchSize())
}

// loadNode fetches the source's full contents. The relation is stored in
// st.loaded (and its bytes tracked for the rest of the run) before any
// batch is emitted, so a downstream local-selection node that synchronizes
// on this node's edge always finds the relation present.
func (r *streamRun) loadNode(ctx context.Context, s plan.Step, em *emitter, agg *queryStats) error {
	e := r.e
	src := e.Sources[s.Source]
	for attempt := 0; ; attempt++ {
		actx := ctx
		var asp *obs.Span
		if attempt > 0 {
			actx, asp = obs.StartSpan(ctx, obs.KindAttempt, fmt.Sprintf("attempt %d", attempt+1))
		}
		release, err := e.slot(actx, s.Source)
		if err != nil {
			asp.End(err)
			return fmt.Errorf("source %s: %w", src.Name(), err)
		}
		rel, err := src.Load(actx)
		release()
		agg.queries++
		asp.End(err)
		if err == nil {
			r.st.mu.Lock()
			r.st.loaded[s.Out] = rel
			r.st.mu.Unlock()
			r.tr.add(rel.Bytes())
			return em.emitSorted(ctx, rel.Items(), e.batchSize())
		}
		agg.errors++
		if attempt >= e.Retries || !source.IsTransient(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("source %s: %w", src.Name(), cerr)
		}
		agg.retries++
	}
}

// localSelectNode applies a plan condition to loaded source contents. The
// input edge carries the load node's item stream purely as a completion
// signal — the relation itself (with its non-merge attributes) lives in
// st.loaded — so the node drains the edge, then selects locally for free.
func (r *streamRun) localSelectNode(ctx context.Context, s plan.Step, ins []*streamEdge, em *emitter) error {
	in := &edgeIter{ed: ins[0]}
	defer in.Close()
	for {
		batch, err := in.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
	}
	r.st.mu.Lock()
	rel, ok := r.st.loaded[s.In[0]]
	r.st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%q is not loaded source contents", s.In[0])
	}
	out, err := localSelect(rel, r.p, s.Cond)
	if err != nil {
		return err
	}
	return em.emitSorted(ctx, out.Items(), r.e.batchSize())
}

// mergeNode runs the local set algebra incrementally: the input edges are
// adapted to set.Iter and fed through the merge operators, which exploit
// the sorted-batch invariant to produce output as soon as enough input has
// arrived. MergeIntersect's short-circuit (any input exhausted ⇒ done)
// closes the remaining inputs, which abandons their edges and stops the
// producers — the streaming form of the materialized empty-set
// short-circuit.
func (r *streamRun) mergeNode(ctx context.Context, s plan.Step, ins []*streamEdge, em *emitter) error {
	bs := r.e.batchSize()
	its := make([]set.Iter, len(ins))
	for k := range ins {
		its[k] = &edgeIter{ed: ins[k]}
	}
	var m set.Iter
	switch s.Kind {
	case plan.KindUnion:
		m = set.MergeUnion(bs, its...)
	case plan.KindIntersect:
		m = set.MergeIntersect(bs, its...)
	default:
		m = set.MergeDiff(bs, its[0], its[1])
	}
	defer m.Close()
	for {
		batch, err := m.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		if err := em.emit(ctx, batch); err != nil {
			return err
		}
	}
}

package exec

// The node: one definition per plan step kind. A body reads its inputs as
// set.Iter streams of sorted batches and emits its output through its node;
// runNode wraps it with the step's span, metrics, Result counters and trace
// entry; every source exchange a body issues goes through retry. The two
// schedulers differ only in what they plug in: whole versions and a node
// that builds one between batch barriers (exec.go), edges and a node
// that tees to edges in the pipeline (stream.go).

import (
	"context"
	"errors"
	"fmt"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// errAbandoned is the internal signal that every consumer of a node's
// output has abandoned its edge: the node stops producing and reports
// clean completion.
var errAbandoned = errors.New("exec: all stream consumers abandoned")

// node is one step in execution: where its output goes — appended to the
// variable being built (whole, the round scheduler) or teed to the consumer
// edges (outs, the pipelined scheduler, where an edge its consumer has
// abandoned is nil and live counts the others) — and what it has emitted
// and cost so far.
type node struct {
	// Between barriers: owned says the body made kept for the run alone, so
	// the run may give it back (lifetime.go).
	whole, owned bool
	kept         []string

	outs []*streamEdge
	live int

	items   int
	batches int
	cost    queryStats
}

// emit delivers one non-empty batch. Empty batches are dropped (the Iter
// contract forbids them on edges). On edges it returns errAbandoned once no
// consumer remains, so producers stop paying for unwanted work. The tee
// never blocks on one consumer while starving another: an edge that is part
// of a fan-out is unbounded (see streamEdge), so the only blocking send is
// to a sole consumer. Each edge gets its own copy, so the batch is only
// borrowed: a body may emit a lent batch. Between barriers the batch is
// adopted, so a body there emits only items it owns or a Set's (the round
// scheduler's inputs and outputs are whole, immutable variables).
func (nd *node) emit(ctx context.Context, batch []string) error {
	if len(batch) == 0 {
		return nil
	}
	nd.items += len(batch)
	nd.batches++
	if nd.whole {
		if nd.kept == nil {
			// Between barriers a body emits its whole output once; adopt it.
			nd.kept = batch
		} else {
			nd.kept = append(nd.kept[:len(nd.kept):len(nd.kept)], batch...)
		}
		return nil
	}
	bytes := batchBytes(batch)
	for i, ed := range nd.outs {
		if ed == nil {
			continue
		}
		delivered, err := ed.send(ctx, batch, bytes)
		if err != nil {
			return err
		}
		if !delivered {
			nd.outs[i] = nil
			nd.live--
		}
	}
	if nd.live == 0 && len(nd.outs) > 0 {
		return errAbandoned
	}
	return nil
}

// emitSorted emits a sorted, deduplicated slice in batches following the
// set.Schedule from batch; zero means all at once.
func (nd *node) emitSorted(ctx context.Context, items []string, batch int) error {
	if batch <= 0 {
		return nd.emit(ctx, items)
	}
	for sched := set.NewSchedule(batch); len(items) > 0; {
		n := min(sched.Next(), len(items))
		if err := nd.emit(ctx, items[:n:n]); err != nil {
			return err
		}
		items = items[n:]
	}
	return nil
}

// runNode runs step idx as its state's node over its state's inputs, and
// accounts it: a step span, the per-source metrics, the Result counters,
// FailedStep and the trace entry.
// Counters aggregate over all attempts of all the step's exchanges; a failed
// step appears in the trace with Err set and the work it charged. The
// returned error carries the step's text.
func (r *run) runNode(ctx context.Context, idx int) error {
	// Spans and traces show the text the plan's Flow formatted once.
	s, text, st := r.p.Steps[idx], r.flow.Texts[idx], &r.steps[idx]
	nd := &st.nd
	sctx, span := obs.StartSpan(ctx, obs.KindStep, text)
	isSource := s.IsSourceQuery()
	srcName := ""
	// The step's exchanges are entered in the run's ledger under its index; a
	// replicated source's failovers and hedges are attributed to it through
	// context-carried call stats. Both are the run's, installed in place.
	var cs *fabric.CallStats
	if isSource {
		srcName = r.p.Sources[s.Source]
		span.SetAttr(obs.String("source", srcName))
		if r.ledger != nil {
			sctx = st.acct.Open(sctx, r.ledger, idx)
		}
		if isReplicated(r.e.Sources[s.Source]) {
			cs = &r.calls[idx]
			sctx = fabric.WithCallStats(sctx, cs)
		}
	}

	err := r.body(sctx, idx, st.ins, nd)
	agg := nd.cost
	if errors.Is(err, errAbandoned) {
		// Nobody wants the rest of this stream — clean early completion.
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("exec: %s: %w", text, err)
	}
	span.End(err)

	met := obs.Meter(ctx)
	if isSource {
		met.Counter(obs.MSourceQueries, "source", srcName).Add(int64(agg.queries))
		met.Counter(obs.MRetries, "source", srcName).Add(int64(agg.retries))
		if err != nil {
			met.Counter(obs.MStepErrors, "source", srcName).Inc()
		}
	}
	if r.pipelined && nd.batches > 0 {
		met.Counter(obs.MStreamBatches, "source", srcName).Add(int64(nd.batches))
	}

	var failovers, hedges int
	if cs != nil {
		failovers = int(cs.Failovers.Load())
		hedges = int(cs.Hedges.Load())
	}
	r.mu.Lock()
	r.res.SourceQueries += agg.queries
	r.res.Retries += agg.retries
	r.res.Failovers += failovers
	r.res.Hedges += hedges
	if err != nil && (r.res.FailedStep < 0 || idx < r.res.FailedStep) {
		r.res.FailedStep = idx
	}
	tr := StepTrace{Index: idx, Text: text, Queries: agg.queries, Retries: agg.retries, Errors: agg.errors, Failovers: failovers, Hedges: hedges}
	if err != nil {
		tr.Err = err.Error()
	} else {
		tr.OutItems = nd.items
	}
	r.res.Trace = append(r.res.Trace, tr)
	r.mu.Unlock()
	return err
}

// body runs step idx by its kind. Errors come back unwrapped; runNode adds
// the step prefix.
func (r *run) body(ctx context.Context, idx int, ins []set.Iter, nd *node) error {
	s := r.p.Steps[idx]
	switch s.Kind {
	case plan.KindSelect:
		return r.selectBody(ctx, s, nd)
	case plan.KindSemijoin:
		return r.semijoinBody(ctx, s, ins[0], nd)
	case plan.KindBloomSemijoin:
		return r.bloomBody(ctx, s, ins[0], nd)
	case plan.KindLoad:
		return r.loadBody(ctx, idx, nd)
	case plan.KindLocalSelect:
		return r.localSelectBody(ctx, idx, ins[0], nd)
	case plan.KindUnion, plan.KindIntersect, plan.KindDiff:
		return r.mergeBody(ctx, s, ins, nd)
	default:
		return fmt.Errorf("unknown step kind %v", s.Kind)
	}
}

// retry is the one attempt loop: it runs attempt until it succeeds, fails
// for good, or the executor's retry budget for transient source failures
// (source.ErrTransient) is spent. Source queries are reads, so retries are
// safe; the traffic of a failed attempt is genuine extra work and stays
// charged by whoever counts it. attempt reports final=true when its failure
// must not be retried whatever its class. Re-attempts get attempt spans
// (first attempts are covered by the enclosing step and exchange spans),
// naming the binding when the exchange is one binding of an emulated
// semijoin.
//
// A context error is never transient (source.IsTransient), and between
// attempts the context is checked again: the failed attempt races with
// cancellation, and re-issuing after the caller gave up would burn the whole
// budget against a source that keeps failing.
func (r *run) retry(ctx context.Context, j int, agg *queryStats, binding string, attempt func(context.Context) (final bool, err error)) error {
	for n := 0; ; n++ {
		actx := ctx
		var asp *obs.Span
		if n > 0 {
			actx, asp = obs.StartSpan(ctx, obs.KindAttempt, fmt.Sprintf("attempt %d", n+1))
			if binding != "" {
				asp.SetAttr(obs.String("binding", binding))
			}
		}
		final, err := attempt(actx)
		asp.End(err)
		if err == nil || errors.Is(err, errAbandoned) {
			return err
		}
		agg.errors++
		if final || n >= r.e.Retries || !source.IsTransient(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("source %s: %w", r.p.Sources[j], cerr)
		}
		agg.retries++
	}
}

// exchange issues one charged exchange with source j, call, through the
// retry loop. The source's link admits it (source.Instrumented).
func (r *run) exchange(ctx context.Context, j int, agg *queryStats, binding string, call func(context.Context) error) error {
	return r.retry(ctx, j, agg, binding, func(ctx context.Context) (bool, error) {
		agg.queries++
		return false, call(ctx)
	})
}

// selectBody is sq(c, src). Between batch barriers it is one Select
// exchange for the whole selection; in the pipeline it opens a chunked
// stream, where the retry budget applies only while nothing has been
// emitted yet: once batches are downstream a transient mid-stream failure
// cannot be retried without re-emitting, so it fails the step (and the run
// stays honest). In a plan that wants its final round's records
// (plan.FinalRecords) a final-round selection asks for the records instead
// and keeps them in the sink.
func (r *run) selectBody(ctx context.Context, s plan.Step, nd *node) error {
	agg := &nd.cost
	j, src, c := s.Source, r.e.Sources[s.Source], r.p.Conds[s.Cond]
	if r.sink.wants(s) {
		var tuples []relation.Tuple
		err := r.exchange(ctx, j, agg, "", func(ctx context.Context) (err error) {
			tuples, err = src.SelectRecords(ctx, c)
			return err
		})
		if err != nil {
			return err
		}
		return nd.emitSorted(ctx, r.sink.add(j, tuples, src.Schema().MergeIndex()).Items(), r.batch)
	}
	if r.pipelined {
		return r.retry(ctx, j, agg, "", func(ctx context.Context) (bool, error) {
			before := nd.batches
			err := r.drainSelect(ctx, j, c, nd)
			return nd.batches > before, err
		})
	}
	var out set.Set
	err := r.exchange(ctx, j, agg, "", func(ctx context.Context) (err error) {
		out, err = src.Select(ctx, c)
		return err
	})
	if err != nil {
		return err
	}
	// The answer is the run's alone (source.Source).
	nd.owned = true
	return nd.emit(ctx, out.Items())
}

// drainSelect is one attempt at streaming the selection: open, pull, emit.
// The link admits the open and each pull on its own, so backpressure never
// holds a source lane.
func (r *run) drainSelect(ctx context.Context, j int, c cond.Cond, nd *node) error {
	it, err := source.OpenSelectStream(ctx, r.e.Sources[j], c, r.batch)
	nd.cost.queries++
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		batch, err := it.Next(ctx)
		if err != nil || batch == nil {
			return err
		}
		if err := nd.emit(ctx, batch); err != nil {
			return err
		}
	}
}

// semijoinBody evaluates sjq(c, src, Y) one input batch at a time, with the
// best mechanism the source supports (Section 2.3's emulation rule): each
// batch — the whole of Y between barriers, a chunk of it as it arrives in
// the pipeline — is one native semijoin exchange or one fan-out of binding
// queries, and an empty Y costs nothing. Output order is preserved because
// a probe's matches are a subset of its input batch and batches arrive in
// increasing item order. A final-round native semijoin of a plan that wants
// that round's records asks for the records instead.
func (r *run) semijoinBody(ctx context.Context, s plan.Step, in set.Iter, nd *node) error {
	agg := &nd.cost
	j, src, c := s.Source, r.e.Sources[s.Source], r.p.Conds[s.Cond]
	caps := src.Caps()
	if !caps.NativeSemijoin && !caps.PassedBindings {
		return fmt.Errorf("source %s: semijoin not emulable: %w", src.Name(), source.ErrUnsupported)
	}
	records := caps.NativeSemijoin && r.sink.wants(s)
	for {
		batch, err := in.Next(ctx)
		if err != nil || batch == nil {
			return err
		}
		// An edge lends its batch, and a semijoin's set is kept while the
		// exchange runs, so the pipeline copies it into a pooled buffer,
		// given back once the exchange has returned: a source reads y no
		// longer (source.Source), and the fabric waits for every leg of a
		// hedge. A whole variable is immutable.
		if r.pipelined {
			batch = append(set.Alloc(len(batch)), batch...)
		}
		y := set.FromSorted(batch)
		var out set.Set
		switch {
		case records:
			var tuples []relation.Tuple
			err = r.exchange(ctx, j, agg, "", func(ctx context.Context) (err error) {
				tuples, err = src.SemijoinRecords(ctx, c, y)
				return err
			})
			if err == nil {
				out = r.sink.add(j, tuples, src.Schema().MergeIndex())
			}
		case caps.NativeSemijoin:
			err = r.exchange(ctx, j, agg, "", func(ctx context.Context) (err error) {
				out, err = src.Semijoin(ctx, c, y)
				return err
			})
		default:
			out, err = r.bindings(ctx, j, c, y.Items(), agg)
		}
		if r.pipelined {
			set.Release(y)
		}
		if err != nil {
			return err
		}
		// Between barriers this is the one batch: a source's answer, the
		// run's alone unless the records sink keeps it. In the pipeline
		// every edge takes a copy, so an answer the run owns goes back once
		// emitted.
		nd.owned = !records
		err = nd.emit(ctx, out.Items())
		if r.pipelined && nd.owned {
			set.Release(out)
		}
		if err != nil {
			return err
		}
	}
}

// bloomBody is a barrier under either scheduler: the Bloom filter needs the
// complete input set before the single filter exchange can be issued. In
// the pipeline the collected input is mediator memory for the node's
// lifetime (between barriers it is the variable, already counted). The
// exact result — the positives restricted to the actual input, discarding
// the filter's false positives — is emitted.
func (r *run) bloomBody(ctx context.Context, s plan.Step, input set.Iter, nd *node) error {
	src, c := r.e.Sources[s.Source], r.p.Conds[s.Cond]
	in, err := collect(ctx, input)
	if err != nil || in.IsEmpty() {
		return err
	}
	if r.pipelined {
		r.tr.add(in.Bytes())
		defer r.tr.release(in.Bytes())
	}
	filter := bloom.FromItems(in.Items(), bloom.DefaultBitsPerItem)
	var positives set.Set
	err = r.exchange(ctx, s.Source, &nd.cost, "", func(ctx context.Context) (err error) {
		positives, err = src.SemijoinBloom(ctx, c, filter)
		return err
	})
	if err != nil {
		return err
	}
	// The positives are the caller's (source.Source), and the intersection
	// is a new set: the one the positives were is dead.
	out := positives.Intersect(in)
	set.Release(positives)
	nd.owned = true
	return nd.emitSorted(ctx, out.Items(), r.batch)
}

// loadBody fetches the source's full contents for load step idx. The
// relation is stored (and its bytes tracked for the rest of the run) before
// anything is emitted, so a local selection downstream always finds it
// present. The items emitted are the relation's ordered view's own, which a
// wrapper shares with its backend: the output is not the run's (nd.owned
// stays false), so it is never given back.
func (r *run) loadBody(ctx context.Context, idx int, nd *node) error {
	s := r.p.Steps[idx]
	var rel *relation.Relation
	err := r.exchange(ctx, s.Source, &nd.cost, "", func(ctx context.Context) (err error) {
		rel, err = r.e.Sources[s.Source].Load(ctx)
		return err
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.loaded == nil {
		// Sized once: the plans that load are not adaptive, whose steps
		// grow (adapt decides no loads).
		r.loaded = make([]*relation.Relation, len(r.p.Steps))
	}
	r.loaded[idx] = rel
	r.mu.Unlock()
	r.tr.add(rel.Bytes())
	return nd.emitSorted(ctx, rel.Ordered().Items, r.batch)
}

// localSelectBody applies step idx's condition to loaded source contents:
// the selection a row-store wrapper over the loaded relation would answer,
// free in the cost model (Section 2.4). The input carries the load step's
// items purely as a completion signal — the relation itself, with its
// non-merge attributes, is in r.loaded under the step that loaded it — so
// the body drains it, then selects.
func (r *run) localSelectBody(ctx context.Context, idx int, in set.Iter, nd *node) error {
	s := r.p.Steps[idx]
	for {
		batch, err := in.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
	}
	var rel *relation.Relation
	r.mu.Lock()
	if v := r.flow.In[idx][0]; v < len(r.loaded) {
		rel = r.loaded[v]
	}
	r.mu.Unlock()
	if rel == nil {
		return fmt.Errorf("%q is not loaded source contents", s.In[0])
	}
	out, err := source.SelectItems(rel, r.p.Conds[s.Cond])
	if err != nil {
		return err
	}
	nd.owned = true
	return nd.emitSorted(ctx, out.Items(), r.batch)
}

// collect reads a body's input whole: a variable between barriers as the
// set it is, without a copy, an edge by set.Collect, which copies what the
// edge lends.
func collect(ctx context.Context, in set.Iter) (set.Set, error) {
	w, ok := in.(*wholeIter)
	if !ok {
		return set.Collect(ctx, in)
	}
	items := w.items
	w.items = nil
	if err := ctx.Err(); err != nil {
		return set.Set{}, err
	}
	return set.FromSorted(items), nil
}

// mergeBody is the local set algebra, ∪, ∩ and −, by internal/set's
// operators. Whole variables go through the materialized kernels, which
// size their output once. Edges go through the incremental merges, which
// exploit the sorted-batch invariant to produce output as soon as enough
// input has arrived; MergeIntersect's short-circuit (any input exhausted ⇒
// done) closes the remaining inputs, which abandons their edges and stops
// the producers — the pipelined form of a drained running set costing
// nothing further.
func (r *run) mergeBody(ctx context.Context, s plan.Step, ins []set.Iter, nd *node) error {
	if !r.pipelined {
		// The kernels keep no input list, so a merge of up to len(buf)
		// inputs lists them on the stack.
		var buf [16]set.Set
		sets := buf[:0]
		for _, in := range ins {
			v, err := collect(ctx, in)
			if err != nil {
				return err
			}
			sets = append(sets, v)
		}
		// The output is a buffer of the pool's that no input shares, or, when
		// empty, none at all (package set): the run's alone.
		var out set.Set
		switch s.Kind {
		case plan.KindUnion:
			out = set.UnionWith(set.Alloc, sets...)
		case plan.KindIntersect:
			out = set.IntersectWith(set.Alloc, sets...)
		default:
			out = set.DiffWith(set.Alloc, sets[0], sets[1])
		}
		nd.owned = true
		return nd.emit(ctx, out.Items())
	}
	var m set.Iter
	switch s.Kind {
	case plan.KindUnion:
		m = set.MergeUnion(r.batch, ins...)
	case plan.KindIntersect:
		m = set.MergeIntersect(r.batch, ins...)
	default:
		m = set.MergeDiff(r.batch, ins[0], ins[1])
	}
	defer m.Close()
	for {
		batch, err := m.Next(ctx)
		if err != nil || batch == nil {
			return err
		}
		if err := nd.emit(ctx, batch); err != nil {
			return err
		}
	}
}

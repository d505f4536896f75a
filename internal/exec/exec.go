// Package exec implements the mediator's plan executor. It runs the
// straight-line plans of internal/plan against wrapped sources, performing
// the local set algebra (∪, ∩, −) and the postoptimization local
// selections at the mediator, and issuing selection, semijoin and load
// queries to the sources.
//
// Every plan step kind has one definition (node.go): an operator body over
// set.Iter inputs that emits through its node, wrapped by runNode's step
// accounting, with every source exchange going through one retry loop. Two
// schedulers drive those nodes. The round scheduler (this file) runs a plan
// batch by batch over whole sets, a batch being a run of source queries none
// of which reads another's answer (plan.Flow.BatchEnd; in the canonical
// plans, one round's), all of them at once (the response-time direction the
// paper names as future work in Section 6), every source admitting at most
// its link's connection capacity of in-flight exchanges (netsim's lanes,
// held by source.Instrumented, shared with every other caller of the
// source), so the simulated response time is the per-batch critical path
// over the per-source k-lane schedules. A round is one condition's steps
// (plan.Flow.RoundEnd), whose running set a run keeps. The "total work" the
// paper's cost model minimizes is the sum of the run's exchanges in whatever
// order they ran, and overlap leaves it unchanged. The pipelined scheduler (stream.go) runs
// every step at once over bounded batch edges.
//
// Every run takes a context.Context. Cancellation is observed between
// steps, between the bindings of an emulated semijoin, and inside
// individual source exchanges; a cancelled run stops promptly, leaks no
// goroutines, and still returns a Result whose counters report the source
// queries and simulated work already paid for, alongside an error wrapping
// ctx.Err().
package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
)

// Executor runs plans against a fixed roster of sources. It is immutable
// configuration: everything a run mutates lives in that run, so one
// Executor serves any number of concurrent Run calls.
type Executor struct {
	// Sources must align with the Sources of every executed plan: the
	// step's Source index selects into this slice.
	Sources []source.Source
	// Network, when set, turns on the accounting of simulated work and
	// response time, and gives each source's link capacity to the accounting
	// and to an emulated semijoin's fan-out. It must be the network the
	// sources' instrumentation records to, which is also what admits their
	// exchanges: at most a link's MaxConns (default 1) of them at once,
	// across every query sharing the network.
	Network *netsim.Network
	// Retries is how many times a source exchange that fails with a
	// transient error (source.ErrTransient) is re-issued before the run
	// fails. Zero disables retries. The budget is per exchange: one flaky
	// binding of an emulated semijoin never re-issues the bindings that
	// already succeeded. Context cancellation is never retried.
	Retries int
	// Streaming switches Run from the round scheduler to the pipelined one
	// (stream.go): every plan step becomes a concurrent node exchanging
	// sorted item batches, source selections are consumed chunk by chunk,
	// and semijoins fan out as input batches arrive. The answer, the records
	// and the honest-partial guarantees are identical; what changes is peak
	// intermediate memory (bounded batch buffers instead of whole
	// variables), the latency of the first answer batch, and the number of
	// exchanges (one per chunk; chunks grow by set.Schedule, so a long
	// selection takes about a sixteenth of the chunks fixed-size batches
	// would). An adaptive plan is round-scheduled whatever this says: it
	// decides each round from the measured size of the one before.
	Streaming bool
	// BatchSize is the size of every stream's first batch in pipelined
	// execution and of a chunked source transfer's first chunk; zero means
	// set.DefaultBatch. Later batches follow set.Schedule: each double the
	// one before, up to set.MaxGrowth times the first.
	BatchSize int
}

// Result summarizes one plan execution.
type Result struct {
	// Answer is the value of the plan's result variable: the items
	// satisfying all conditions of the fusion query. Empty when the run
	// failed or was cancelled before the result variable was computed.
	Answer set.Set
	// AnswerOwned says Answer's buffer is the caller's outright: nothing of
	// the run keeps it, so once nobody reads Answer (or Vars, which holds
	// it) the caller may give it back with set.Release. A pipelined run that
	// succeeds sets it, and so does a round-scheduled one unless its result
	// step is a load or a step of a records round, whose items are not the
	// run's.
	AnswerOwned bool
	// Records holds the answer entities' full records when the plan
	// retrieves them (plan.Records); nil otherwise, and after a failure.
	Records *relation.Relation
	// Plan is the plan that ran: the one given, or for an adaptive plan the
	// rounds it decided, ending with the one that failed.
	Plan *plan.Plan
	// Vars holds the set variables the run still holds when it ends, filled
	// then from the latest version of each variable. Between barriers a
	// version dies once the batch of the last step that reads it is over
	// (lifetime.go), so what stays is the result, each round's running set,
	// and whatever a step read by nobody left assigned. After a failed or
	// cancelled run it also holds every variable computed and not yet read
	// for the last time. A pipelined run holds only its result, and so does
	// a run whose caller has called DropVars.
	Vars map[string]set.Set
	// drop is the buffers the run owns outright and still holds, Answer's
	// aside: what DropVars gives back.
	drop []set.Set
	// SourceQueries counts charged source operations actually issued
	// (selections, native semijoins, emulated per-binding selections,
	// loads) — including attempts that reached the source before the run
	// failed or was cancelled.
	SourceQueries int
	// TotalWork is the summed simulated duration of the exchanges this run
	// made — its own ledger, whatever else shared the network — and the
	// quantity the optimizers minimize. Zero without a Network.
	TotalWork time.Duration
	// ResponseTime is the simulated wall-clock, never above TotalWork: the
	// sum of per-batch critical paths between batch barriers, where each
	// source's contribution to a batch is the makespan of its exchanges over
	// its connection capacity (netsim.Makespan), and the critical path of
	// the whole run in streaming mode. Zero without a Network.
	ResponseTime time.Duration
	// Retries counts source operations re-issued after a transient failure
	// — whole exchanges, or individual bindings of an emulated semijoin. The
	// re-issues themselves are already charged in SourceQueries.
	Retries int
	// PeakBytes is the high-water mark of mediator-held intermediate item
	// bytes (set.Bytes units). Materialized runs count each step's output
	// from when it is made until the batch of its last reader is over (the
	// result and each round's running set to the end) and loaded relations;
	// streaming runs count the in-flight batch buffers, barrier
	// materializations, loaded relations and the accumulating answer.
	// Bytes buffered at a source or inside a streaming adapter play the
	// server's role and are not mediator memory.
	PeakBytes int
	// FirstAnswer is the wall-clock time from run start until the first
	// answer items existed: the first result batch in streaming mode, the
	// completed answer in materialized mode (where nothing is answerable
	// earlier). Zero when the run failed before producing any answer
	// items.
	FirstAnswer time.Duration
	// Trace is the per-step execution trace, ordered by step index: output
	// cardinalities, issued queries, retries, and the simulated time of the
	// exchanges each step issued. Every run keeps it.
	Trace []StepTrace
	// Failovers and Hedges count replica-fabric activity across the run:
	// exchanges re-issued on another replica after a failure, and hedged
	// backup exchanges launched against stragglers. Zero for rosters
	// without replicated sources.
	Failovers int
	Hedges    int
	// FailedStep is the index in Plan of the first step that failed — the
	// minimum failed index when a batch fails several steps, len(Plan.Steps)
	// when only the records round failed — or -1 when every executed step
	// succeeded. Mid-query roster repair uses it to locate the last
	// completed round.
	FailedStep int
}

// DropVars is for the caller of a run that succeeded and reads no variable
// but the result: it gives every buffer the run owns and still holds but
// Answer's — the round scheduler's running sets, in Vars or superseded by a
// later version of their variable — back to set's pool, and leaves Vars
// holding only the result, as a pipelined run's does. Nothing may read the
// dropped sets again; Answer stays valid.
func (res *Result) DropVars() {
	for _, s := range res.drop {
		set.Release(s)
	}
	res.drop = nil
	for name := range res.Vars {
		if name != res.Plan.Result {
			delete(res.Vars, name)
		}
	}
}

// Run executes the plan under ctx and returns the result. The plan's
// source names must match the executor's sources position by position. An
// adaptive plan (plan.Plan.Adaptive) decides its rounds as it runs (adapt);
// a plan that wants records retrieves them once the answer is known
// (records).
//
// On failure — including cancellation and deadline expiry — the returned
// Result is still non-nil: its counters report the source queries and
// simulated work already performed, and Vars holds the set variables
// computed before the failure. The error wraps the cause, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) identify
// abandoned runs.
func (e *Executor) Run(ctx context.Context, p *plan.Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := e.checkRoster("plan", p.Sources); err != nil {
		return nil, err
	}
	r := e.newRun(p)
	err := r.execute(ctx)
	if err == nil {
		err = r.records(ctx)
	}
	r.close()
	return r.res, err
}

// checkRoster verifies that names — a plan's or a problem's sources — are
// the executor's, position by position.
func (e *Executor) checkRoster(what string, names []string) error {
	if len(names) != len(e.Sources) {
		return fmt.Errorf("exec: %s has %d sources, executor has %d", what, len(names), len(e.Sources))
	}
	for j, name := range names {
		if e.Sources[j].Name() != name {
			return fmt.Errorf("exec: %s source %d is %q but executor has %q", what, j, name, e.Sources[j].Name())
		}
	}
	return nil
}

// run is one execution: the plan, the scheduler in charge, and everything
// the execution mutates. Admission is not the run's: the sources' links hold
// it across runs.
type run struct {
	e *Executor
	p *plan.Plan
	// flow is p's Flow: its step texts, the version each input reads, the
	// batches, and how long the round scheduler's lifetimes keep each
	// version. An adaptive run's grows with its plan.
	flow *plan.Flow
	// pipelined says which scheduler drives the nodes; batch is the
	// granularity bodies emit at — the batch size when pipelined, zero
	// (whole sets) between batch barriers.
	pipelined bool
	batch     int
	// ledger holds the run's own exchanges, each tagged with the index of the
	// step that issued it (nil without a network); settled counts the entries
	// already accounted.
	ledger  *netsim.Ledger
	settled int
	// steps[i] is what step i keeps while it runs (stepState), sized from
	// flow; an adaptive run's grows with its plan. So does calls, step i's
	// fabric call stats, when a source is replicated (nil when none is).
	steps      []stepState
	calls      []fabric.CallStats
	replicated bool
	// table is an adaptive plan's (adaptive.go), nil for any other.
	table *stats.CostTable
	// sink is non-nil when the plan retrieves records (records.go).
	sink *recordSink
	tr   byteTracker
	// life is the round scheduler's account of its versions and buffers:
	// the only place it keeps a value.
	life lifetimes

	// batchWG waits for the steps of runBatch's batch; batchErr is the
	// first of them to fail.
	batchWG  sync.WaitGroup
	batchErr error

	mu  sync.Mutex // guards res, loaded and batchErr across concurrent nodes
	res *Result
	// loaded[i] is the source contents load step i fetched, nil for any
	// other step.
	loaded []*relation.Relation
}

// newRun opens a run of p under the scheduler the Streaming flag selects. An
// adaptive plan's run is round-scheduled and runs a plan of its own, which
// starts empty and grows by the rounds it decides.
func (e *Executor) newRun(p *plan.Plan) *run {
	r := &run{e: e, p: p, pipelined: e.Streaming, replicated: slices.ContainsFunc(e.Sources, isReplicated)}
	r.life.tr = &r.tr
	if p.Adaptive != nil {
		r.table, r.pipelined = p.Adaptive, false
		r.p = &plan.Plan{Conds: p.Conds, Sources: p.Sources, Class: p.Class, Records: p.Records}
	}
	r.flow = r.p.Flow()
	if p.Records != plan.NoRecords {
		r.sink = &recordSink{final: -1, bySource: map[int]map[string][]relation.Tuple{}}
		if p.Records == plan.FinalRecords {
			r.sink.final = r.p.FinalCond()
		}
	}
	// Room for a trace entry a step and one for a records round.
	r.res = &Result{Plan: r.p, FailedStep: -1, Trace: make([]StepTrace, 0, len(p.Steps)+1)}
	if r.pipelined {
		r.batch = e.BatchSize
		if r.batch <= 0 {
			r.batch = set.DefaultBatch
		}
	}
	if e.Network != nil {
		// Room for one exchange a source-query step: more for a chunked
		// stream or an emulated semijoin, whose exchanges grow the ledger.
		n := 0
		for _, s := range p.Steps {
			if s.IsSourceQuery() {
				n++
			}
		}
		r.ledger = netsim.NewLedger(n)
	}
	r.grow()
	return r
}

// stepState is what a step keeps while it runs: its node, the iterators
// its inputs are read through, and the account its exchanges are entered
// in the run's ledger under, which is the context they run in once opened.
// A run keeps every step's in one array (run.steps), and a replicated
// source's step its fabric call stats in another (run.calls), so running a
// step allocates none of them.
type stepState struct {
	nd   node
	ins  []set.Iter
	acct netsim.Account
}

// grow gives each step of the run's flow a state. Between barriers the
// inputs are wholeIters from one array shared by the steps grown at once;
// the pipeline wires its own to edges. Growing copies the states of the
// steps already run, which no longer change: a context one of them
// installed keeps reading the old copy.
func (r *run) grow() {
	from, n := len(r.steps), len(r.flow.In)
	if from >= n {
		return
	}
	r.steps = slices.Grow(r.steps, n-from)[:n]
	if r.replicated {
		r.calls = slices.Grow(r.calls, n-from)[:n]
	}
	if r.pipelined {
		return
	}
	total := 0
	for _, in := range r.flow.In[from:] {
		total += len(in)
	}
	whole, ins := make([]wholeIter, total), make([]set.Iter, total)
	for i := from; i < n; i++ {
		k := len(r.flow.In[i])
		st := &r.steps[i]
		st.ins = ins[:k:k]
		for j := range st.ins {
			st.ins[j] = &whole[j]
		}
		whole, ins = whole[k:], ins[k:]
	}
}

// execute computes the answer under the run's scheduler. Between batch
// barriers nothing is answerable before the run completes: the first-answer
// phase spans the whole execution, which is exactly the coupling the
// pipelined scheduler breaks.
func (r *run) execute(ctx context.Context) error {
	if r.pipelined {
		return r.runPipelined(ctx)
	}
	start := time.Now()
	_, faSpan := obs.StartSpan(ctx, obs.KindPhase, "first-answer")
	var err error
	if r.table != nil {
		err = r.adapt(ctx)
	} else {
		err = r.runSteps(ctx, 0)
	}
	faSpan.End(err)
	if err == nil {
		r.res.Answer = r.life.vers[r.flow.Result].val
		r.res.AnswerOwned, r.res.drop = r.life.owned(r.flow.Result)
		r.res.FirstAnswer = time.Since(start)
		obs.Meter(ctx).Histogram(obs.MFirstAnswerSeconds).Observe(r.res.FirstAnswer.Seconds())
	}
	return err
}

// close settles what both schedulers report the same way. A round-scheduled
// run's Vars are its live versions'; a pipelined run filled its own.
func (r *run) close() {
	if r.res.Vars == nil {
		r.res.Vars = r.life.vars(r.p.Steps)
	}
	r.res.PeakBytes = r.tr.high()
	slices.SortFunc(r.res.Trace, func(a, b StepTrace) int { return a.Index - b.Index })
	// A step's elapsed time is what the exchanges it issued took; the records
	// round's are under the index after the last step's. The trace holds one
	// entry a step that ran, in index order.
	for _, en := range r.ledger.Entries()[:r.settled] {
		if i, ok := slices.BinarySearchFunc(r.res.Trace, en.Tag, func(t StepTrace, idx int) int { return t.Index - idx }); ok {
			r.res.Trace[i].Elapsed += en.Elapsed
		}
	}
}

// runSteps is the round scheduler: it executes r.p.Steps[from:] in order,
// every step reading whole versions and making a whole version. A
// source-query step runs with the independent source-query steps after it
// (plan.Flow.BatchEnd's batch) as one batch. Local steps run inline.
func (r *run) runSteps(ctx context.Context, from int) error {
	steps := r.p.Steps
	if len(r.flow.Texts) != len(steps) {
		r.flow = r.p.Flow() // an adaptive run's plan has grown by a round
		r.grow()
	}
	r.life.begin(r.flow)
	for k := from; k < len(steps); {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		end := k + 1
		var err error
		if steps[k].IsSourceQuery() {
			end = r.flow.BatchEnd[k]
			err = r.runBatch(ctx, k, end)
		} else {
			err = r.runStep(ctx, k)
		}
		if err != nil {
			return err
		}
		r.life.retire(k, end)
		k = end
	}
	return nil
}

// wholeIter feeds a body one whole version as a single batch.
type wholeIter struct{ items []string }

func (it *wholeIter) Next(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil || len(it.items) == 0 {
		return nil, err
	}
	batch := it.items
	it.items = nil
	return batch, nil
}

func (it *wholeIter) Close() error {
	it.items = nil
	return nil
}

// runStep runs step idx between barriers: its inputs are the versions
// Flow says it reads, and its output is the step's version in the run's
// lifetimes. The steps of a batch read versions made before it and record
// distinct ones, so they need no lock for it.
func (r *run) runStep(ctx context.Context, idx int) error {
	st := &r.steps[idx]
	for k, v := range r.flow.In[idx] {
		st.ins[k].(*wholeIter).items = r.life.vers[v].val.Items()
	}
	st.nd = node{whole: true}
	if err := r.runNode(ctx, idx); err != nil {
		return err
	}
	r.life.record(idx, set.FromSorted(st.nd.kept), st.nd.owned)
	return nil
}

// runBatch executes source-query steps [start, end) concurrently and
// accounts the batch critical path as its response-time contribution: each
// source contributes the makespan of its exchanges over its connection
// capacity, and the slowest source bounds the batch. The first step to fail
// for good stops the batch: its error is recorded, then the siblings'
// context is cancelled, so what is reported is never a sibling's
// cancellation and a lost query asks its sources nothing more. Work already
// performed is charged even when the batch fails — counters and simulated
// time reflect the traffic that reached the sources, exchanges interrupted
// in flight included.
func (r *run) runBatch(ctx context.Context, start, end int) error {
	if end-start == 1 {
		// Nothing beside it to overlap with, or to stop.
		err := r.runStep(ctx, start)
		r.settle()
		return err
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.batchErr = nil
	// The last step runs on this goroutine, which would only wait.
	for idx := start; idx < end-1; idx++ {
		r.batchWG.Add(1)
		go func() {
			defer r.batchWG.Done()
			r.batchStep(bctx, cancel, idx)
		}()
	}
	r.batchStep(bctx, cancel, end-1)
	r.batchWG.Wait()
	r.settle()
	return r.batchErr
}

// batchStep runs step idx of runBatch's batch. The first step of the batch
// to fail records its error, then cancels its siblings.
func (r *run) batchStep(ctx context.Context, cancel context.CancelFunc, idx int) {
	if err := r.runStep(ctx, idx); err != nil {
		r.mu.Lock()
		if r.batchErr == nil {
			r.batchErr = err
		}
		r.mu.Unlock()
		cancel()
	}
}

// settle accounts the ledger entries made since the last settle — one batch,
// or a whole pipelined run — whether or not what made them failed:
// their sum joins TotalWork, their critical path ResponseTime. Without a
// network there are none.
func (r *run) settle() {
	entries := r.ledger.Entries()[r.settled:]
	r.settled += len(entries)
	var work time.Duration
	for _, en := range entries {
		work += en.Elapsed
	}
	r.res.TotalWork += work
	// One lane per physical endpoint (each link admits its own exchanges),
	// in arrival order; the slowest lane's makespan over its link's capacity
	// bounds the rest. The lanes are gathered on the stack, one endpoint at
	// a time, in the order each first appears.
	var critical time.Duration
	var nameBuf [16]string
	var durBuf [64]time.Duration
	seen := nameBuf[:0]
	for i, en := range entries {
		if slices.Contains(seen, en.Source) {
			continue
		}
		seen = append(seen, en.Source)
		durs := durBuf[:0]
		for _, other := range entries[i:] {
			if other.Source == en.Source {
				durs = append(durs, other.Elapsed)
			}
		}
		critical = max(critical, netsim.Makespan(durs, r.e.Network.ConnsFor(en.Source)))
	}
	r.res.ResponseTime += critical
}

// replicaSource is the fabric's fan-out face: a logical source exposing its
// physical endpoints' connection capacities.
type replicaSource interface {
	ReplicaConns() map[string]int
}

// isReplicated says src is a replicaSource.
func isReplicated(src source.Source) bool {
	_, ok := src.(replicaSource)
	return ok
}

package exec

// The pipelined scheduler. Instead of materializing every set variable
// between batch barriers, runPipelined turns the plan into a pipeline: one
// goroutine per step running the same node the round scheduler runs
// (node.go), connected by bounded batch edges carrying sorted item batches
// (the set.Iter contract). Source selections are consumed chunk by chunk
// through source.OpenSelectStream, semijoins fan out per input batch as
// bindings arrive, and the local ∪/∩/− operators are the incremental
// merges of internal/set — so the first answer batch can exist long before
// the last source exchange completes, and peak mediator memory is bounded
// batch buffers rather than whole intermediate variables.
//
// Invariants shared with the round scheduler:
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
//     (the whole run is one batch — the pipeline overlaps everything the
//     data dependencies allow).
//
// Deadlock freedom: a node holds a lane of its source's link only for one
// exchange (the open or one chunk pull), never across an emit — so
// consumer backpressure cannot starve same-source exchanges of later
// steps. Abandonment propagates upstream: when every consumer of a node's
// output has closed its edge (e.g. an intersect short-circuited on an
// exhausted input), the node stops cleanly without draining its source.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/set"
)

// streamEdgeDepth is the per-edge buffer in batches. Small: the buffer
// exists to decouple producer and consumer scheduling jitter, not to
// materialize intermediates.
const streamEdgeDepth = 2

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

// batchBytes is what a batch's items weigh in PeakBytes.
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
//
// Batches on an edge are the edge's own: send copies the producer's lent
// batch into a pooled buffer (so a tee gives each consumer its own, and the
// producer may refill its buffer as soon as send returns), recv lends that
// buffer to the consumer, and the next recv, or abandonment, gives it back.
type streamEdge struct {
	tr    *byteTracker
	bound int // max buffered batches; 0 = unbounded (fan-out edges)

	mu        sync.Mutex
	buf       []edgeBatch
	lent      *[]string // the batch the consumer holds
	closed    bool
	abandoned bool
	sendKick  chan struct{} // capacity 1: consumer → producer wakeups
	recvKick  chan struct{} // capacity 1: producer → consumer wakeups
}

// edgeBatch is one batch buffered on an edge and its item bytes, counted
// once, when the producer emitted it.
type edgeBatch struct {
	items *[]string
	bytes int
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

// send delivers a copy of batch, whose items are bytes bytes, to the
// consumer, blocking under backpressure on a bounded edge. It returns
// delivered=false when the consumer abandoned the edge (the copy is
// dropped), and an error only for context cancellation.
func (ed *streamEdge) send(ctx context.Context, batch []string, bytes int) (bool, error) {
	b := edgeBatch{items: set.GetBatch(len(batch)), bytes: bytes}
	*b.items = append(*b.items, batch...)
	for {
		ed.mu.Lock()
		if ed.abandoned {
			ed.mu.Unlock()
			set.PutBatch(b.items)
			return false, nil
		}
		if ed.bound == 0 || len(ed.buf) < ed.bound {
			ed.buf = append(ed.buf, b)
			ed.mu.Unlock()
			ed.tr.add(bytes)
			kickOne(ed.recvKick)
			return true, nil
		}
		ed.mu.Unlock()
		select {
		case <-ed.sendKick:
		case <-ctx.Done():
			set.PutBatch(b.items)
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

// take pops the next batch, waiting for the producer when the edge is
// empty, and hands it over: the caller gives its buffer back. ok=false is
// EOF.
func (ed *streamEdge) take(ctx context.Context) (b edgeBatch, ok bool, err error) {
	for {
		ed.mu.Lock()
		if len(ed.buf) > 0 {
			b = ed.buf[0]
			ed.buf[0] = edgeBatch{}
			ed.buf = ed.buf[1:]
			ed.mu.Unlock()
			ed.tr.release(b.bytes)
			kickOne(ed.sendKick)
			return b, true, nil
		}
		if ed.closed {
			ed.mu.Unlock()
			return b, false, nil
		}
		ed.mu.Unlock()
		select {
		case <-ed.recvKick:
		case <-ctx.Done():
			return b, false, ctx.Err()
		}
	}
}

// recv lends the next batch until the following recv or abandonment, which
// give the one before back. (nil, nil) is EOF.
func (ed *streamEdge) recv(ctx context.Context) ([]string, error) {
	ed.putLent(nil)
	b, ok, err := ed.take(ctx)
	if !ok {
		return nil, err
	}
	ed.putLent(b.items)
	return *b.items, nil
}

// putLent gives back the batch the consumer held and records next as the
// one it holds now.
func (ed *streamEdge) putLent(next *[]string) {
	ed.mu.Lock()
	set.PutBatch(ed.lent)
	ed.lent = next
	ed.mu.Unlock()
}

// abandonNow marks the edge abandoned (idempotent), gives back whatever the
// producer buffered and the consumer held, and unblocks the producer so it
// can observe the abandonment.
func (ed *streamEdge) abandonNow() {
	ed.mu.Lock()
	if !ed.abandoned {
		ed.abandoned = true
		for _, b := range ed.buf {
			ed.tr.release(b.bytes)
			set.PutBatch(b.items)
		}
		ed.buf = nil
	}
	set.PutBatch(ed.lent)
	ed.lent = nil
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

// runPipelined is the pipelined scheduler: every step of the plan runs at
// once as a node on its own goroutine, reading edges and teeing to edges,
// and this goroutine drains the answer.
func (r *run) runPipelined(ctx context.Context) error {
	res := r.res
	start := time.Now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	// fail records the run's first error and cancels the pipeline. Recording
	// before cancelling guarantees the causal error wins the race against the
	// cancellation errors it triggers downstream.
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	// Wire the graph: one edge per (consumer step, input occurrence), from
	// the step whose version the input reads (plan.Flow.In), plus the
	// answer drain consumed below. Plans reassign names, but every version
	// is one step's output, so it has exactly one producing node; a version
	// with several consumers has its batches teed to each edge by that
	// node.
	outs := make([][]*streamEdge, len(r.p.Steps))
	stepIns := make([][]set.Iter, len(r.p.Steps))
	for i, in := range r.flow.In {
		ins := make([]set.Iter, len(in))
		for k, v := range in {
			ed := newStreamEdge(&r.tr)
			ins[k] = &edgeIter{ed: ed}
			outs[v] = append(outs[v], ed)
		}
		stepIns[i] = ins
	}
	answerEdge := newStreamEdge(&r.tr)
	outs[r.flow.Result] = append(outs[r.flow.Result], answerEdge)
	for _, edges := range outs {
		if len(edges) > 1 {
			// Fan-out: unbounded edges, the deadlock-freedom invariant.
			for _, ed := range edges {
				ed.bound = 0
			}
		}
	}

	_, faSpan := obs.StartSpan(ctx, obs.KindPhase, "first-answer")

	for i := range r.p.Steps {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			ins, outs := stepIns[idx], outs[idx]
			nd := node{outs: outs, dead: make([]bool, len(outs)), live: len(outs)}
			err := r.runNode(rctx, idx, ins, &nd)
			// However the node ended: EOF for its consumers, stop for its
			// producers.
			for _, ed := range outs {
				ed.closeSend()
			}
			for _, in := range ins {
				_ = in.Close()
			}
			if err != nil {
				fail(err)
			}
		}(i)
	}

	// Drain the answer on this goroutine, taking each batch's buffer over
	// until EOF; the answer is then gathered into one buffer from set.Alloc,
	// which nothing of the run keeps, so the caller owns it outright
	// (Result.AnswerOwned). The drained batches are mediator memory for the
	// rest of the run, so their bytes stay tracked.
	var drained []*[]string
	var drainErr error
	var first time.Duration
	n := 0
	for {
		b, ok, err := answerEdge.take(rctx)
		if err != nil {
			drainErr = fmt.Errorf("exec: %w", err)
			break
		}
		if !ok {
			break
		}
		if drained == nil {
			first = time.Since(start)
			faSpan.End(nil)
		}
		r.tr.add(b.bytes)
		drained = append(drained, b.items)
		n += len(*b.items)
	}
	answerEdge.abandonNow()
	wg.Wait()

	err := firstErr
	if err == nil {
		// All nodes finished cleanly; a drain-side cancellation still
		// truncates the answer and must fail the run honestly.
		err = drainErr
	}
	if drained == nil {
		// No batch arrived: close the first-answer phase with the outcome
		// (nil for a legitimately empty answer).
		faSpan.End(err)
		first = time.Since(start)
	}
	if err == nil {
		// Only a run that succeeds has a first answer: a batch drained before
		// a later step failed is discarded with the rest of the partial.
		res.FirstAnswer = first
		obs.Meter(ctx).Histogram(obs.MFirstAnswerSeconds).Observe(first.Seconds())
		var answer []string
		if n > 0 {
			answer = set.Alloc(n)
		}
		for _, b := range drained {
			answer = append(answer, *b...)
		}
		res.Answer = set.FromSorted(answer)
		res.AnswerOwned = true
		res.Vars = map[string]set.Set{r.p.Result: res.Answer}
	}
	for _, b := range drained {
		set.PutBatch(b)
	}
	// The pipeline is one big batch: response time is the critical path over
	// the per-source k-lane schedules of the whole run's exchanges.
	r.settle()
	return err
}

package set

// Pull-based streaming iterators over sorted item batches. An Iter is the
// streaming counterpart of a materialized Set: it yields the same sorted,
// duplicate-free item sequence, but in bounded batches, so a consumer can
// start working — and an operator tree can start merging — before the whole
// sequence exists anywhere. The merge operators below are the incremental
// forms of the mediator's local algebra (∪, ∩, −). They run the materialized
// kernels (UnionAll's, and the filter under IntersectAll and Diff) over one
// decided frontier after another: the inputs are sorted, so every item up to
// the least of their last buffered items is decided. They short-circuit the
// moment their output is decided (an exhausted intersection input ends the
// stream without draining the rest).
//
// Iterator contract:
//   - Next returns the next batch: non-empty, sorted ascending, strictly
//     greater item-wise than everything previously returned. A nil batch
//     with a nil error means the stream is exhausted.
//   - Returned batches are lent, not given: a batch is valid until the
//     consumer's next call to Next or Close, after which the producer may
//     fill the same memory again (a merge, a wire stream, a source server
//     and a pipeline edge all do, from the pool in pool.go). A consumer
//     that keeps items past that copies them — Collect does — and nobody
//     writes to a lent batch. Only the slice is lent: the item strings are
//     immutable and may be kept.
//   - After an error, the iterator is poisoned: Next keeps returning the
//     same error.
//   - Close releases the iterator's resources and is idempotent; it must
//     be called on every iterator, exhausted or not (a composed iterator
//     propagates Close to its inputs, which is how abandoning a stream
//     releases upstream work). Passing an iterator to a merge operator or
//     to Collect transfers ownership: closing the consumer closes it.

import (
	"context"
	"fmt"
	"slices"
)

// DefaultBatch is the first-batch size used when a caller passes a
// non-positive one. It is small enough to keep first-batch latency low; the
// batches after it grow (Schedule) to amortize per-batch overhead.
const DefaultBatch = 256

// Iter is a pull-based stream of sorted item batches. See the package
// comment above for the full contract.
type Iter interface {
	// Next returns the next non-empty sorted batch, or (nil, nil) when the
	// stream is exhausted.
	Next(ctx context.Context) ([]string, error)
	// Close releases resources, propagating to owned input iterators.
	// It is idempotent and safe to call concurrently with nothing.
	Close() error
}

// setIter streams a materialized Set in batches.
type setIter struct {
	items []string
	pos   int
	sched Schedule
}

// IterOf returns an iterator over s whose batches follow the Schedule from
// batch: a first batch of batch items (DefaultBatch when batch <= 0), each
// later one double the one before up to MaxGrowth times the first. It is the
// bridge from materialized to streaming flow: a source without chunked
// transfer still feeds the streaming pipeline through it.
func IterOf(s Set, batch int) Iter {
	return &setIter{items: s.items, sched: NewSchedule(batch)}
}

func (it *setIter) Next(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rest := len(it.items) - it.pos
	if rest <= 0 {
		return nil, nil
	}
	end := it.pos + min(it.sched.Next(), rest)
	out := it.items[it.pos:end:end]
	it.pos = end
	return out, nil
}

func (it *setIter) Close() error {
	it.pos = len(it.items)
	return nil
}

// Collect drains it into a materialized Set and closes it — exhausted or
// not, success or failure. It is the streaming-to-materialized bridge and
// the canonical way to consume an iterator whole. The batches are lent, so
// each is copied into a pooled buffer, and the set is one exact-size slice.
func Collect(ctx context.Context, it Iter) (Set, error) {
	defer func() { _ = it.Close() }()
	var held [16][]string
	copies, n := held[:0], 0
	defer func() {
		for _, c := range copies {
			Release(Set{items: c})
		}
	}()
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			return Set{}, err
		}
		if batch == nil {
			break
		}
		copies, n = append(copies, append(Alloc(len(batch)), batch...)), n+len(batch)
	}
	if n == 0 {
		return Set{}, nil
	}
	items := make([]string, 0, n)
	for _, c := range copies {
		items = append(items, c...)
	}
	return Set{items: items}, nil
}

// op is the operator a merge computes.
type op uint8

const (
	opUnion op = iota
	opIntersect
	opDiff
)

// input is one of a merge's inputs: its stream, what is left of the batch
// the stream last lent, and whether the stream has ended.
type input struct {
	it   Iter
	buf  []string
	done bool
}

// maxCut bounds the items of one input a frontier decides, so a union's
// scratch is a few thousand pairs whatever the batch sizes, and one from
// the pool is already the size a merge needs.
const maxCut = 512

// mergeIter is the one merge of the three operators. Each fill decides one
// frontier after another: the least of the live inputs' last buffered
// items. The inputs are sorted, so every item up to it is decided, for ∪, ∩
// and − alike; each input's batch is cut there (pre) and the operator's
// kernel runs over the cuts. Every batch is the one pooled buffer, lent
// until the consumer's next call; what a union's run has beyond it (rest)
// starts the next one, and until then no input is pulled, so the cuts it
// names stay lent. Close gives the buffer and the scratch back and
// propagates to every input exactly once.
type mergeIter struct {
	op     op
	ins    []input
	pre    []Set
	sc     *unionScratch
	rest   []pair
	sched  Schedule
	out    Buffer
	err    error
	done   bool
	closed bool
}

func newMerge(batch int, o op, its ...Iter) *mergeIter {
	m := &mergeIter{op: o, ins: make([]input, len(its)), pre: make([]Set, len(its)), sched: NewSchedule(batch)}
	for i, it := range its {
		m.ins[i].it = it
	}
	return m
}

func (m *mergeIter) Next(ctx context.Context) ([]string, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		m.err = err
		return nil, err
	}
	out, err := m.fill(ctx, m.out.Take(m.sched.Next()))
	if err != nil {
		m.err = err
		return nil, err
	}
	if len(out) < cap(out) {
		// A fill stops short only when the output is decided: release the
		// inputs now, so upstream producers stop without waiting for the
		// consumer's Close, and the call that ends the stream fills no
		// batch. A close error surfaces after the items already decided.
		m.err = m.closeInputs()
	}
	if len(out) == 0 {
		return nil, m.err
	}
	return out, nil
}

// fill fills out, from what is left of the last union's run and then from
// one frontier after another, until it is full or the output is decided.
func (m *mergeIter) fill(ctx context.Context, out []string) ([]string, error) {
	for {
		n := min(len(m.rest), cap(out)-len(out))
		out = gather(out, m.pre, m.rest[:n])
		m.rest = m.rest[n:]
		room := cap(out) - len(out)
		if room == 0 {
			return out, nil
		}
		if live, err := m.pull(ctx); err != nil || !live {
			return out, err
		}
		m.cut(min(room, maxCut))
		switch m.op {
		case opUnion:
			out = m.union(out)
		case opIntersect:
			out = intersect(out, m.pre)
		default:
			out = filter(out, m.pre[0].items, m.pre[1].items, false)
		}
	}
}

// pull gives every input whose batch is used up its next one, and reports
// whether the output has more to decide: a union while any input lasts, an
// intersection while all do (the first that ends decides it, and the rest
// are not pulled), a difference while a does (after b, a passes through).
func (m *mergeIter) pull(ctx context.Context) (bool, error) {
	live := false
	for i := range m.ins {
		in := &m.ins[i]
		for !in.done && len(in.buf) == 0 {
			batch, err := in.it.Next(ctx)
			if err != nil {
				return false, err
			}
			in.buf, in.done = batch, batch == nil
		}
		if in.done && (m.op == opIntersect || m.op == opDiff && i == 0) {
			return false, nil
		}
		live = live || !in.done
	}
	return live, nil
}

// cut moves each input's items up to the frontier from its batch to its
// cut in pre. Only the first room items of a batch count, so no cut is
// longer than room: an intersection's or a difference's output fits the
// room left, and a union's overflows into rest.
func (m *mergeIter) cut(room int) {
	fi, f := -1, ""
	for i := range m.ins {
		b := m.ins[i].buf[:min(len(m.ins[i].buf), room)]
		if len(b) > 0 && (fi < 0 || b[len(b)-1] < f) {
			fi, f = i, b[len(b)-1]
		}
	}
	for i := range m.ins {
		in := &m.ins[i]
		end := min(len(in.buf), room)
		if i != fi {
			j, found := slices.BinarySearch(in.buf[:end], f)
			end = j + b2i(found)
		}
		m.pre[i], in.buf = Set{items: in.buf[:end]}, in.buf[end:]
	}
}

// union appends to out the union of the cuts as far as out has room, and
// keeps the rest of the kernel's run. A cut alone is copied; the scratch is
// taken from the pool at the first union of two.
func (m *mergeIter) union(out []string) []string {
	runs, live, _ := runsOf(m.pre)
	if runs == 1 {
		return append(out, m.pre[live].items...)
	}
	if m.sc == nil {
		m.sc = scratchPool.Get().(*unionScratch)
	}
	run := m.sc.union(m.pre, runs, len(m.pre)*maxCut)
	n := min(len(run), cap(out)-len(out))
	m.rest = run[n:]
	return gather(out, m.pre, run[:n])
}

func (m *mergeIter) Close() error {
	m.out.Release()
	if m.sc != nil {
		scratchPool.Put(m.sc)
		m.sc, m.rest = nil, nil
	}
	return m.closeInputs()
}

func (m *mergeIter) closeInputs() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.done = true
	var first error
	for _, in := range m.ins {
		if err := in.it.Close(); err != nil && first == nil {
			first = fmt.Errorf("set: closing merge input: %w", err)
		}
	}
	return first
}

// MergeUnion returns the streaming union of the inputs, its batches following
// the Schedule from batch. Ownership of the inputs transfers to the returned
// iterator. It is UnionAll over one decided frontier after another.
func MergeUnion(batch int, its ...Iter) Iter { return newMerge(batch, opUnion, its...) }

// MergeIntersect returns the streaming intersection of the inputs, its
// batches following the Schedule from batch. Ownership of the inputs
// transfers to the returned iterator. The moment any input exhausts, the
// intersection is decided: the stream ends and every input is closed — the
// short-circuit that lets a drained running set abandon upstream work
// mid-flight.
func MergeIntersect(batch int, its ...Iter) Iter { return newMerge(batch, opIntersect, its...) }

// MergeDiff returns the streaming difference a − b, its batches following the
// Schedule from batch. Ownership of both inputs transfers to the returned
// iterator. When b exhausts, the remainder of a passes through unfiltered.
func MergeDiff(batch int, a, b Iter) Iter { return newMerge(batch, opDiff, a, b) }

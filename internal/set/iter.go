package set

// Pull-based streaming iterators over sorted item batches. An Iter is the
// streaming counterpart of a materialized Set: it yields the same sorted,
// duplicate-free item sequence, but in bounded batches, so a consumer can
// start working — and an operator tree can start merging — before the whole
// sequence exists anywhere. The merge operators below are the incremental
// forms of the mediator's local algebra (∪, ∩, −): they exploit the sorted
// invariant exactly like the materialized Union/Intersect/Diff, one batch at
// a time, and short-circuit the moment their output is decided (an
// exhausted intersection input ends the stream without draining the rest).
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
// the set is a copy of them.
func Collect(ctx context.Context, it Iter) (Set, error) {
	defer func() { _ = it.Close() }()
	var items []string
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			return Set{}, err
		}
		if batch == nil {
			return Set{items: items}, nil
		}
		items = append(items, batch...)
	}
}

// cursor wraps an input iterator with one-batch lookahead for merging. While
// the batch has a head, key is the head's key8: a stream's common prefix is
// not known in advance, so the key is the item's first 8 bytes, and the
// merges compare keys and read the strings only when two keys tie.
type cursor struct {
	it   Iter
	buf  []string
	pos  int
	key  uint64
	done bool
}

// spent reports whether the cursor's batch is used up and its stream has
// not ended.
func (c *cursor) spent() bool { return !c.done && c.pos >= len(c.buf) }

// ready ensures the cursor has a current item or is done. It is inlined, and
// calls the input only when the batch is spent.
func (c *cursor) ready(ctx context.Context) error {
	if !c.spent() {
		return nil
	}
	return c.pull(ctx)
}

// pull reads batches from the input until one has an item or the stream
// ends.
func (c *cursor) pull(ctx context.Context) error {
	for c.spent() {
		batch, err := c.it.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			c.done = true
			c.buf, c.pos = nil, 0
			return nil
		}
		c.buf, c.pos = batch, -1
		c.advance()
	}
	return nil
}

func (c *cursor) head() string { return c.buf[c.pos] }

// advance moves past the head, keying the next one if the batch has it.
func (c *cursor) advance() {
	c.pos++
	if c.pos < len(c.buf) {
		c.key = key8(c.buf[c.pos])
	}
}

// compare orders the heads of two cursors that have one.
func (c *cursor) compare(d *cursor) int { return compareKeyed(c.key, c.head(), d.key, d.head()) }

// mergeIter is the shared chassis of the merge operators: a fill function
// fills one output batch, of the schedule's next size, from the cursors (it
// stops short only when the output is decided), and Close propagates to
// every input exactly once. Every batch is the one pooled buffer, lent to
// the consumer until its next call; Close gives the buffer back.
type mergeIter struct {
	cur    []*cursor
	sched  Schedule
	out    Buffer
	fill   func(ctx context.Context, out []string) ([]string, error)
	err    error
	done   bool
	closed bool
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

func (m *mergeIter) Close() error {
	m.out.Release()
	return m.closeInputs()
}

func (m *mergeIter) closeInputs() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.done = true
	var first error
	for _, c := range m.cur {
		if err := c.it.Close(); err != nil && first == nil {
			first = fmt.Errorf("set: closing merge input: %w", err)
		}
	}
	return first
}

func newCursors(its []Iter) []*cursor {
	cur := make([]*cursor, len(its))
	for i, it := range its {
		cur[i] = &cursor{it: it}
	}
	return cur
}

// MergeUnion returns the streaming union of the inputs, its batches following
// the Schedule from batch. Ownership of the inputs transfers to the returned
// iterator. The merge is the k-way generalization of Set.Union: each output
// item is the minimum of the input heads, with duplicates across inputs
// collapsed.
func MergeUnion(batch int, its ...Iter) Iter {
	m := &mergeIter{cur: newCursors(its), sched: NewSchedule(batch)}
	m.fill = func(ctx context.Context, out []string) ([]string, error) {
		for len(out) < cap(out) {
			var least *cursor
			for _, c := range m.cur {
				if err := c.ready(ctx); err != nil {
					return nil, err
				}
				if !c.done && (least == nil || c.compare(least) < 0) {
					least = c
				}
			}
			if least == nil {
				return out, nil
			}
			k, min := least.key, least.head()
			out = append(out, min)
			for _, c := range m.cur {
				if !c.done && c.key == k && c.head() == min {
					c.advance()
				}
			}
		}
		return out, nil
	}
	return m
}

// MergeIntersect returns the streaming intersection of the inputs, its
// batches following the Schedule from batch. Ownership of the inputs
// transfers to the returned iterator. The moment any input exhausts, the
// intersection is decided: the stream ends and every input is closed — the
// short-circuit that lets a drained running set abandon upstream work
// mid-flight.
func MergeIntersect(batch int, its ...Iter) Iter {
	m := &mergeIter{cur: newCursors(its), sched: NewSchedule(batch)}
	if len(its) == 0 {
		m.done = true
		return m
	}
	m.fill = func(ctx context.Context, out []string) ([]string, error) {
		for len(out) < cap(out) {
			// Candidate: the greatest head; every input must advance to
			// (or past) it.
			var top *cursor
			for _, c := range m.cur {
				if err := c.ready(ctx); err != nil {
					return nil, err
				}
				if c.done {
					return out, nil
				}
				if top == nil || c.compare(top) > 0 {
					top = c
				}
			}
			k, max := top.key, top.head()
			all := true
			for _, c := range m.cur {
				// Skip items below the candidate; an input that exhausts
				// while skipping decides the intersection.
				d := -1
				for d < 0 {
					if err := c.ready(ctx); err != nil {
						return nil, err
					}
					if c.done {
						return out, nil
					}
					if d = compareKeyed(c.key, c.head(), k, max); d < 0 {
						c.advance()
					}
				}
				all = all && d == 0
			}
			if all {
				out = append(out, max)
				for _, c := range m.cur {
					c.advance()
				}
			}
		}
		return out, nil
	}
	return m
}

// MergeDiff returns the streaming difference a − b, its batches following the
// Schedule from batch. Ownership of both inputs transfers to the returned
// iterator. When b exhausts, the remainder of a passes through unfiltered.
func MergeDiff(batch int, a, b Iter) Iter {
	m := &mergeIter{cur: newCursors([]Iter{a, b}), sched: NewSchedule(batch)}
	ca, cb := m.cur[0], m.cur[1]
	m.fill = func(ctx context.Context, out []string) ([]string, error) {
		for len(out) < cap(out) {
			if err := ca.ready(ctx); err != nil {
				return nil, err
			}
			if ca.done {
				return out, nil
			}
			if err := cb.ready(ctx); err != nil {
				return nil, err
			}
			d := -1
			if !cb.done {
				d = ca.compare(cb)
			}
			switch {
			case d < 0:
				out = append(out, ca.head())
				ca.advance()
			case d > 0:
				cb.advance()
			default:
				ca.advance()
				cb.advance()
			}
		}
		return out, nil
	}
	return m
}

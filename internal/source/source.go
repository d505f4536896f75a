// Package source implements the autonomous data sources of the fusion-query
// framework and the wrappers that export them (Section 2.1). A wrapper maps
// an arbitrary internal storage model — row store, key–value store, OEM
// semistructured store — to the common relational view and answers the two
// wrapper operations the paper defines:
//
//	X := sq(c, R)      selection query: items of R satisfying c
//	X := sjq(c, R, Y)  semijoin query: subset of Y satisfying c in R
//
// plus the postoptimization operation lq(R) (load the entire relation,
// Section 4) and the phase-two record fetch (Section 1). Capability flags
// model the paper's three tiers of semijoin support: native, emulable via
// passed bindings (c AND M = m), or unsupported.
//
// Every query operation takes a context.Context: sources are autonomous and
// their latency is not under the mediator's control (Section 2.1), so the
// caller owns the right to abandon a slow exchange. Implementations must
// observe cancellation promptly — within a block of items for multi-item
// operations — and return an error wrapping ctx.Err() so callers can
// errors.Is it.
package source

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// ErrUnsupported is returned for operations a source cannot perform, e.g. a
// native semijoin against a source without semijoin support. The optimizer
// maps it to infinite cost (Section 2.3).
var ErrUnsupported = errors.New("source: operation not supported")

// ErrContract reports a peer whose answer breaks its operation's contract:
// a semijoin's items or records with an item outside y, or a fetch's records
// of an item nobody asked for. It is a fault of the peer that gave it: a
// replicated source fails over to another replica, and nothing asks the
// same peer again.
var ErrContract = errors.New("source: answer breaks its operation's contract")

// Capabilities describes what query forms a source wrapper accepts.
type Capabilities struct {
	// NativeSemijoin: the source accepts sjq(c, R, Y) directly.
	NativeSemijoin bool
	// PassedBindings: the source accepts selections of the form
	// "c AND M = m", so the mediator can emulate a semijoin with one
	// selection per item of Y (Section 2.3).
	PassedBindings bool
	// BloomSemijoin: the source can evaluate a semijoin against a Bloom
	// filter of the running set instead of the set itself (the Bloomjoin
	// refinement; an extension beyond the paper). Results may contain
	// false positives, which the mediator filters out exactly.
	BloomSemijoin bool
}

// ParseTier returns the capabilities of the tier named native, bindings or
// none, the spelling catalogs and command lines use; "" is native.
func ParseTier(tier string) (Capabilities, error) {
	switch tier {
	case "", "native":
		return Capabilities{NativeSemijoin: true, PassedBindings: true}, nil
	case "bindings":
		return Capabilities{PassedBindings: true}, nil
	case "none":
		return Capabilities{}, nil
	}
	return Capabilities{}, fmt.Errorf("unknown capability tier %q", tier)
}

// String names the capability tier.
func (c Capabilities) String() string {
	switch {
	case c.NativeSemijoin:
		return "native-semijoin"
	case c.PassedBindings:
		return "passed-bindings"
	default:
		return "selection-only"
	}
}

// Source is the mediator's view of one wrapped autonomous source.
//
// The sets Select, Semijoin and SemijoinBloom return belong to the caller
// outright: no implementation keeps one, hands it to anyone else or returns
// it twice, so the caller may give its buffer back with set.Release once
// nobody reads it (the round scheduler and the wire server do). A layer
// passes on what the source beneath it returned; a cache is not a Source.
// The sets y and items a call is given are the caller's: they are only
// read, and not once the call has returned, so the caller may give them
// back then.
type Source interface {
	// Name identifies the source (the R_j of the paper).
	Name() string
	// Schema returns the common view the wrapper exports.
	Schema() *relation.Schema
	// Caps reports the wrapper's query capabilities.
	Caps() Capabilities
	// Select answers sq(c, R): the distinct items whose tuples satisfy c.
	Select(ctx context.Context, c cond.Cond) (set.Set, error)
	// Semijoin answers sjq(c, R, y): the subset of y whose items satisfy c
	// in R. Returns ErrUnsupported unless Caps().NativeSemijoin.
	Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error)
	// SelectBinding answers the passed-binding selection "c AND M = item",
	// reporting whether the item satisfies c at this source. Returns
	// ErrUnsupported unless Caps().PassedBindings.
	SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error)
	// Load answers lq(R): the source's entire relation (Section 4).
	Load(ctx context.Context) (*relation.Relation, error)
	// Fetch returns the full tuples for the given items, the "second
	// phase" query of Section 1.
	Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error)
	// SelectRecords answers a selection query that returns the matching
	// full tuples instead of bare items, in one exchange. It is the
	// building block of the "beyond two-phase" plans of Section 6, where
	// source queries return other attributes in addition to the merge
	// attribute.
	SelectRecords(ctx context.Context, c cond.Cond) ([]relation.Tuple, error)
	// SemijoinRecords answers a semijoin query returning the full tuples
	// of the y items that satisfy c, in one exchange. Returns
	// ErrUnsupported unless Caps().NativeSemijoin.
	SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error)
	// SemijoinBloom answers a semijoin query against a Bloom filter of the
	// running set: the items satisfying c at this source that test
	// positive in the filter. The result may include false positives;
	// callers intersect it with the actual set. Returns ErrUnsupported
	// unless Caps().BloomSemijoin.
	SemijoinBloom(ctx context.Context, c cond.Cond, f *bloom.Filter) (set.Set, error)
	// Card returns coarse statistics: tuple count, distinct item count and
	// approximate size in bytes, the inputs cost models and statistics
	// gathering build on.
	Card() (tuples, distinct, bytes int)
}

// Wrapper adapts a Backend to the Source interface with the given
// capabilities. It is the reference wrapper implementation, and the one place
// the eight operations are computed: every other Source in the tree is a
// Layer over it (exchange.go), next to it or across the wire.
type Wrapper struct {
	name    string
	backend Backend
	caps    Capabilities
}

// NewWrapper builds a wrapper named name over the given backend.
func NewWrapper(name string, backend Backend, caps Capabilities) *Wrapper {
	return &Wrapper{name: name, backend: backend, caps: caps}
}

// Name implements Source.
func (w *Wrapper) Name() string { return w.name }

// Schema implements Source.
func (w *Wrapper) Schema() *relation.Schema { return w.backend.Schema() }

// Caps implements Source.
func (w *Wrapper) Caps() Capabilities { return w.caps }

// ctxErr wraps a context error with the source's name so the failure is
// attributable; nil in, nil out.
func (w *Wrapper) ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("source %s: %w", w.name, err)
	}
	return nil
}

// bind is the first step of every selecting operation: the backend's view and
// c bound to the backend's schema.
func (w *Wrapper) bind(c cond.Cond) (*relation.Ordered, cond.Pred, error) {
	view, pred, err := bindView(w.backend, c)
	if err != nil {
		return nil, nil, fmt.Errorf("source %s: %w", w.name, err)
	}
	return view, pred, nil
}

func bindView(b Backend, c cond.Cond) (*relation.Ordered, cond.Pred, error) {
	pred, err := c.Bind(b.Schema())
	if err != nil {
		return nil, nil, err
	}
	view, err := b.Ordered()
	if err != nil {
		return nil, nil, err
	}
	return view, pred, nil
}

// Select implements Source.
func (w *Wrapper) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	return w.sq(ctx, c, nil)
}

// sq answers sq(c, R), restricted to the items keep accepts when it is
// non-nil.
func (w *Wrapper) sq(ctx context.Context, c cond.Cond, keep func(item string) bool) (set.Set, error) {
	if err := w.ctxErr(ctx); err != nil {
		return set.Set{}, err
	}
	view, pred, err := w.bind(c)
	if err != nil {
		return set.Set{}, err
	}
	return selectItems(view, pred, keep), nil
}

// SelectStream implements ItemStreamer. The selection's groups are matched
// once, into a pooled vector of flags (matchGroups), which Close gives
// back, and each batch gathers the next of them into the stream's one
// buffer, which it lends (set.Iter): no slice of the whole answer is ever
// made.
func (w *Wrapper) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	if err := w.ctxErr(ctx); err != nil {
		return nil, err
	}
	view, pred, err := w.bind(c)
	if err != nil {
		return nil, err
	}
	hits, n := matchGroups(view, pred, nil)
	return &selectStream{w: w, items: view.Items, hits: hits, left: n, sched: set.NewSchedule(batch)}, nil
}

// selectStream is a Wrapper's streamed selection: from group g on, left of
// the groups hits marks are still to come.
type selectStream struct {
	w       *Wrapper
	items   []string
	hits    *[]bool
	g, left int
	sched   set.Schedule
	buf     set.Buffer
}

func (st *selectStream) Next(ctx context.Context) ([]string, error) {
	if st.left == 0 {
		return nil, nil
	}
	if err := st.w.ctxErr(ctx); err != nil {
		return nil, err
	}
	out := st.buf.Take(min(st.sched.Next(), st.left))
	out = out[:cap(out)]
	// gather's branch-free loop, stopping at the batch's last hit.
	g, hits := st.g, *st.hits
	for j := 0; j < len(out); g++ {
		out[j] = st.items[g]
		j += b2i(hits[g])
	}
	st.g, st.left = g, st.left-len(out)
	return out, nil
}

func (st *selectStream) Close() error {
	st.left = 0
	st.buf.Release()
	putHits(st.hits)
	st.hits = nil
	return nil
}

// SelectItems answers sq(c, ·) over a backend: the distinct items with a
// tuple satisfying c. Wrappers and the mediator's local selections over
// loaded relations share this one implementation.
func SelectItems(b Backend, c cond.Cond) (set.Set, error) {
	view, pred, err := bindView(b, c)
	if err != nil {
		return set.Set{}, err
	}
	return selectItems(view, pred, nil), nil
}

// selectItems runs the bound condition over the whole view, folds the rows'
// matches into one per group (matchGroups), and collects the matching
// groups' items, which the view holds sorted and distinct. The match vector is folded in place:
// group g's result lands on hits[g], a row the fold has already read. The
// fold ORs a group's first and last rows and loops only over the rows
// between them, so a group of one or two rows, the common case, costs no
// branch on what matched.
func selectItems(view *relation.Ordered, pred cond.Pred, keep func(item string) bool) set.Set {
	hits, n := matchGroups(view, pred, keep)
	defer putHits(hits)
	return gather(view.Items, *hits, n)
}

// matchGroups is selectItems' pass over the view: (*box)[g] says whether
// group g's item is selected, and n is how many are. The vector is pooled;
// its user gives it back with putHits.
func matchGroups(view *relation.Ordered, pred cond.Pred, keep func(item string) bool) (box *[]bool, n int) {
	box = getHits(len(view.Rows))
	hits := *box
	pred.Match(view, 0, hits)
	start := view.Start
	for g := range view.Items {
		lo, hi := start[g], start[g+1]
		hit := b2i(hits[lo]) | b2i(hits[hi-1])
		for r := lo + 1; r < hi-1; r++ {
			hit |= b2i(hits[r])
		}
		if keep != nil && hit != 0 && !keep(view.Items[g]) {
			hit = 0
		}
		hits[g] = hit != 0
		n += hit
	}
	*box = hits[:len(view.Items)]
	return box, n
}

// Hit vectors: a selection's one flag a row, a semijoin's one a probed item.
// They hold no pointers and die with the call that made them (or with a
// streamed selection's Close), so they come from pools in power-of-two
// classes of at least 2^minHitClass flags, each vector travelling in its box.
const minHitClass = 6

var hitPools [64]sync.Pool

// getHits returns a vector of n flags, of whatever values, in its box.
func getHits(n int) *[]bool {
	c := max(bits.Len(uint(max(n, 1)-1)), minHitClass)
	if p, ok := hitPools[c].Get().(*[]bool); ok {
		*p = (*p)[:n]
		return p
	}
	b := make([]bool, n, 1<<c)
	return &b
}

// putHits gives back a vector from getHits; nil is let go.
func putHits(p *[]bool) {
	if p != nil {
		hitPools[bits.TrailingZeros(uint(cap(*p)))].Put(p)
	}
}

// collect returns the items whose hit is set, gathered into a pooled buffer
// the caller owns (set.Alloc).
func collect(items []string, hits []bool) set.Set {
	n := 0
	for _, hit := range hits {
		n += b2i(hit)
	}
	return gather(items, hits, n)
}

// gather is collect given the number n of hits. Each step copies the item
// and moves the end of the result past it only on a hit, so the loop has no
// branch on the data, and it stops at the nth hit. The result is in a
// buffer from the batch pool (set.Alloc), its capacity the pool's class for
// n, which its owner may give back with set.Release.
func gather(items []string, hits []bool, n int) set.Set {
	if n == 0 {
		return set.Set{}
	}
	out := set.Alloc(n)[:n]
	for g, j := 0, 0; j < n; g++ {
		out[j] = items[g]
		j += b2i(hits[g])
	}
	return set.FromSorted(out)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probeBlock is the number of items a multi-item operation handles between
// two looks at its context.
const probeBlock = 256

// prober answers "does item satisfy the condition in the view": a seek to the
// item's group and the kernel over the group's rows. Probes in ascending item
// order walk the view forward.
type prober struct {
	view *relation.Ordered
	pred cond.Pred
	from int     // the group the last probe ended on
	rows *[]bool // the group's match vector, reused; release gives it back
}

func (p *prober) match(item string) bool {
	g, ok := p.view.Seek(p.from, item)
	p.from = g
	if !ok {
		return false
	}
	lo, n := p.view.Start[g], p.view.Start[g+1]-p.view.Start[g]
	if p.rows == nil || cap(*p.rows) < n {
		putHits(p.rows)
		p.rows = getHits(n)
	}
	rows := (*p.rows)[:n]
	p.pred.Match(p.view, lo, rows)
	for _, hit := range rows {
		if hit {
			return true
		}
	}
	return false
}

// release gives the prober's match vector back.
func (p *prober) release() {
	putHits(p.rows)
	p.rows = nil
}

// Semijoin implements Source, observing ctx between blocks of probes.
func (w *Wrapper) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	if !Supports(w.caps, OpSemi) {
		return set.Set{}, fmt.Errorf("source %s: semijoin: %w", w.name, ErrUnsupported)
	}
	view, pred, err := w.bind(c)
	if err != nil {
		return set.Set{}, err
	}
	probe := prober{view: view, pred: pred}
	defer probe.release()
	items := y.Items()
	box := getHits(len(items))
	defer putHits(box)
	hits := *box
	for i, item := range items {
		if i%probeBlock == 0 {
			if err := w.ctxErr(ctx); err != nil {
				return set.Set{}, err
			}
		}
		hits[i] = probe.match(item)
	}
	return collect(items, hits), nil
}

// SelectBinding implements Source.
func (w *Wrapper) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	if !Supports(w.caps, OpBinding) {
		return false, fmt.Errorf("source %s: passed binding: %w", w.name, ErrUnsupported)
	}
	if err := w.ctxErr(ctx); err != nil {
		return false, err
	}
	view, pred, err := w.bind(c)
	if err != nil {
		return false, err
	}
	probe := prober{view: view, pred: pred}
	defer probe.release()
	return probe.match(item), nil
}

// Load implements Source.
func (w *Wrapper) Load(ctx context.Context) (*relation.Relation, error) {
	if err := w.ctxErr(ctx); err != nil {
		return nil, err
	}
	schema := w.backend.Schema()
	r := relation.NewRelation(schema)
	err := w.backend.Scan(func(t relation.Tuple) error {
		return r.Insert(t)
	})
	if err != nil {
		return nil, fmt.Errorf("source %s: load: %w", w.name, err)
	}
	return r, nil
}

// Summarize implements Summarizer with one pass over the backend's view.
func (w *Wrapper) Summarize(ctx context.Context) (*relation.Summary, error) {
	if err := w.ctxErr(ctx); err != nil {
		return nil, err
	}
	view, err := w.backend.Ordered()
	if err != nil {
		return nil, fmt.Errorf("source %s: stats: %w", w.name, err)
	}
	return relation.Summarize(w.backend.Schema(), view), nil
}

// Fetch implements Source, observing ctx between blocks of lookups.
func (w *Wrapper) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	view, err := w.backend.Ordered()
	if err != nil {
		return nil, fmt.Errorf("source %s: fetch: %w", w.name, err)
	}
	var out []relation.Tuple
	g := 0
	for i, item := range items.Items() {
		if i%probeBlock == 0 {
			if err := w.ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		var ok bool
		if g, ok = view.Seek(g, item); ok {
			out = append(out, view.Group(g)...)
		}
	}
	return out, nil
}

// SemijoinBloom implements Source.
func (w *Wrapper) SemijoinBloom(ctx context.Context, c cond.Cond, f *bloom.Filter) (set.Set, error) {
	if !Supports(w.caps, OpSemiBloom) {
		return set.Set{}, fmt.Errorf("source %s: bloom semijoin: %w", w.name, ErrUnsupported)
	}
	return w.sq(ctx, c, f.Test)
}

// SelectRecords implements Source. Matching is item-level: the result
// holds every tuple of every item that satisfies c somewhere at this
// source, so a plan whose final round ships records reconstructs exactly
// what a phase-two fetch of those items would return.
func (w *Wrapper) SelectRecords(ctx context.Context, c cond.Cond) ([]relation.Tuple, error) {
	items, err := w.Select(ctx, c)
	if err != nil {
		return nil, err
	}
	defer set.Release(items)
	return w.Fetch(ctx, items)
}

// SemijoinRecords implements Source. Matching is item-level, like
// SelectRecords.
func (w *Wrapper) SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error) {
	if !Supports(w.caps, OpSemiRecs) {
		return nil, fmt.Errorf("source %s: record semijoin: %w", w.name, ErrUnsupported)
	}
	items, err := w.Semijoin(ctx, c, y)
	if err != nil {
		return nil, err
	}
	defer set.Release(items)
	return w.Fetch(ctx, items)
}

// Card implements Source.
func (w *Wrapper) Card() (tuples, distinct, bytes int) {
	return w.backend.Size()
}

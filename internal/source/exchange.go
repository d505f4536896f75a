package source

// The exchange contract. Every source operation is one value, a Call, and
// its answer one Reply — the shape the wire protocol already gives them
// (internal/wire: Request{Op,…} → Response). Source stays the face callers
// see; underneath it, a layer between the mediator and a wrapper (fault
// injection, accounting, caching, the replica fabric, the wire client) is
// one Handler, and exactly two conversions connect the two shapes: Do turns
// a Call into the Source method it names, Layer turns a Handler back into
// those methods.

import (
	"context"
	"fmt"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// Op names a source operation, by its wire protocol op code.
type Op string

// The eight source operations of the paper's wrapper interface, and stats,
// the one exchange that lets planning stop asking.
const (
	OpSelect     Op = "sq"      // sq(c, R)
	OpSemi       Op = "sjq"     // sjq(c, R, Y)
	OpBinding    Op = "binding" // the passed-binding selection "c AND M = m"
	OpLoad       Op = "lq"      // lq(R)
	OpFetch      Op = "fetch"   // the phase-two record fetch
	OpSelectRecs Op = "sqr"     // sq returning full records
	OpSemiRecs   Op = "sjqr"    // sjq returning full records
	OpSemiBloom  Op = "sjqb"    // sjq against a Bloom filter of Y
	OpStats      Op = "stats"   // the summary of R's contents (Summarize)
)

// Kind is the name an exchange of this operation goes by in the simulated
// network's log, the cost model and the trace: a passed binding is a
// selection there, every other operation is its own kind.
func (op Op) Kind() string {
	if op == OpBinding {
		return "sq"
	}
	return string(op)
}

// Supports reports whether a source with the given capabilities answers op;
// a source that does not returns ErrUnsupported for it.
func Supports(caps Capabilities, op Op) bool {
	switch op {
	case OpSemi, OpSemiRecs:
		return caps.NativeSemijoin
	case OpBinding:
		return caps.PassedBindings || caps.NativeSemijoin
	case OpSemiBloom:
		return caps.BloomSemijoin
	}
	return true
}

// Call is one source operation with its arguments. Each operation reads the
// fields its Source method takes and ignores the rest.
type Call struct {
	Op   Op
	Cond cond.Cond // every operation but lq and fetch
	// Items is the semijoin set (sjq, sjqr) or the items to fetch.
	Items set.Set
	// Item is the passed binding.
	Item string
	// Filter is the Bloom filter of the semijoin set (sjqb).
	Filter *bloom.Filter
	// Batch, when positive on a selection, asks for the answer as a stream
	// of sorted batches (Reply.Stream): the first of that many items, the
	// later ones following set.Schedule.
	Batch int
}

// Streamed reports whether the call asks for a streamed selection.
func (c Call) Streamed() bool { return c.Op == OpSelect && c.Batch > 0 }

// Reply is the answer to a Call: Items for sq, sjq and sjqb, Match for a
// binding, Tuples for fetch, sqr and sjqr, Rel for lq, Stats for stats,
// Stream for a streamed selection (the caller closes it).
type Reply struct {
	Items  set.Set
	Match  bool
	Tuples []relation.Tuple
	Rel    *relation.Relation
	Stats  *relation.Summary
	Stream set.Iter
}

// Do performs call against src: the one place a Call becomes a Source
// method. A streamed selection opens through OpenSelectStream, so a source
// that cannot chunk still answers it, with one materialized Select; stats
// goes through Summarize, so a source that cannot summarize itself is loaded
// and summarized here.
func Do(ctx context.Context, src Source, call Call) (Reply, error) {
	var r Reply
	var err error
	switch call.Op {
	case OpSelect:
		if call.Streamed() {
			r.Stream, err = OpenSelectStream(ctx, src, call.Cond, call.Batch)
		} else {
			r.Items, err = src.Select(ctx, call.Cond)
		}
	case OpSemi:
		r.Items, err = src.Semijoin(ctx, call.Cond, call.Items)
	case OpBinding:
		r.Match, err = src.SelectBinding(ctx, call.Cond, call.Item)
	case OpLoad:
		r.Rel, err = src.Load(ctx)
	case OpFetch:
		r.Tuples, err = src.Fetch(ctx, call.Items)
	case OpSelectRecs:
		r.Tuples, err = src.SelectRecords(ctx, call.Cond)
	case OpSemiRecs:
		r.Tuples, err = src.SemijoinRecords(ctx, call.Cond, call.Items)
	case OpSemiBloom:
		r.Items, err = src.SemijoinBloom(ctx, call.Cond, call.Filter)
	case OpStats:
		r.Stats, err = Summarize(ctx, src)
	default:
		err = fmt.Errorf("source %s: unknown operation %q", src.Name(), call.Op)
	}
	return r, err
}

// Handler answers source operations in their Call form.
type Handler func(ctx context.Context, call Call) (Reply, error)

// Layer is a Source whose eight operations, SelectStream and Summarize are
// each one call to a Handler. Name, Schema, Caps and Card are the embedded
// Source's: the source underneath, for a layer that keeps its identity. A type that
// describes itself (fabric.Logical, wire.Client) embeds a Layer over nil and
// declares those four.
type Layer struct {
	Source
	handle Handler
}

// Over returns the Layer that answers operations with h and describes itself
// as inner does.
func Over(inner Source, h Handler) Layer { return Layer{Source: inner, handle: h} }

// Select implements Source.
func (l *Layer) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	r, err := l.handle(ctx, Call{Op: OpSelect, Cond: c})
	return r.Items, err
}

// SelectStream implements ItemStreamer.
func (l *Layer) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	if batch <= 0 {
		batch = set.DefaultBatch
	}
	r, err := l.handle(ctx, Call{Op: OpSelect, Cond: c, Batch: batch})
	return r.Stream, err
}

// Summarize implements Summarizer.
func (l *Layer) Summarize(ctx context.Context) (*relation.Summary, error) {
	r, err := l.handle(ctx, Call{Op: OpStats})
	return r.Stats, err
}

// Semijoin implements Source.
func (l *Layer) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	r, err := l.handle(ctx, Call{Op: OpSemi, Cond: c, Items: y})
	return r.Items, err
}

// SelectBinding implements Source.
func (l *Layer) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	r, err := l.handle(ctx, Call{Op: OpBinding, Cond: c, Item: item})
	return r.Match, err
}

// Load implements Source.
func (l *Layer) Load(ctx context.Context) (*relation.Relation, error) {
	r, err := l.handle(ctx, Call{Op: OpLoad})
	return r.Rel, err
}

// Fetch implements Source.
func (l *Layer) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	r, err := l.handle(ctx, Call{Op: OpFetch, Items: items})
	return r.Tuples, err
}

// SelectRecords implements Source.
func (l *Layer) SelectRecords(ctx context.Context, c cond.Cond) ([]relation.Tuple, error) {
	r, err := l.handle(ctx, Call{Op: OpSelectRecs, Cond: c})
	return r.Tuples, err
}

// SemijoinRecords implements Source.
func (l *Layer) SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error) {
	r, err := l.handle(ctx, Call{Op: OpSemiRecs, Cond: c, Items: y})
	return r.Tuples, err
}

// SemijoinBloom implements Source.
func (l *Layer) SemijoinBloom(ctx context.Context, c cond.Cond, f *bloom.Filter) (set.Set, error) {
	r, err := l.handle(ctx, Call{Op: OpSemiBloom, Cond: c, Filter: f})
	return r.Items, err
}

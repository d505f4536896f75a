package source

// Streaming selection. A source that can deliver a selection result
// incrementally — the wire client over a chunking server, or any wrapper
// over an ordered index — implements ItemStreamer; everything else is
// adapted through OpenSelectStream, which falls back to the materialized
// Select wrapped in a batch iterator. Either way the executor's streaming
// pipeline consumes one interface.

import (
	"context"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// ItemStreamer is the optional streaming face of a Source: SelectStream is
// sq(c, R) delivered as sorted item batches of at most batch items
// (set.DefaultBatch when batch <= 0). The returned iterator follows the
// set.Iter contract; closing it before exhaustion abandons the rest of the
// transfer. Every Layer implements it, by handing its handler a Call with
// Batch set, so a streamed selection passes each layer as a stream and the
// fallback below applies once, at the source that cannot chunk.
type ItemStreamer interface {
	SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error)
}

// OpenSelectStream opens a streaming selection against src, using its
// native ItemStreamer when available and falling back to one materialized
// Select otherwise. With the fallback, the first batch still costs the full
// exchange — streaming buys nothing at a source that cannot chunk — but the
// pipeline above remains uniform.
func OpenSelectStream(ctx context.Context, src Source, c cond.Cond, batch int) (set.Iter, error) {
	if st, ok := src.(ItemStreamer); ok {
		return st.SelectStream(ctx, c, batch)
	}
	out, err := src.Select(ctx, c)
	if err != nil {
		return nil, err
	}
	return set.IterOf(out, batch), nil
}

// Summarizer is the optional statistics face of a Source, in the mold of
// ItemStreamer: Summarize describes the source's contents compactly enough
// to estimate any condition's cardinality from (relation.Summary), computed
// where the data is. The Wrapper answers it from one pass over its backend;
// every Layer implements it by handing its handler a Call of OpStats, so the
// exchange is injected with faults, accounted, failed over and carried over
// the wire like any other.
type Summarizer interface {
	Summarize(ctx context.Context) (*relation.Summary, error)
}

// Summarize returns the summary of src's contents: the source's own when it
// is a Summarizer, and otherwise the summary of the relation a Load returns —
// the same value at the price of shipping the relation.
func Summarize(ctx context.Context, src Source) (*relation.Summary, error) {
	if s, ok := src.(Summarizer); ok {
		return s.Summarize(ctx)
	}
	rel, err := src.Load(ctx)
	if err != nil {
		return nil, err
	}
	return rel.Summarize(), nil
}

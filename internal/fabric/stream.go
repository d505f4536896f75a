package fabric

import (
	"context"
	"time"

	"fusionq/internal/set"
)

// logicalStream is a streaming selection through the fabric. The open is
// replica-selected with failover like any exchange (Logical.exchange), but
// the stream then sticks to its endpoint: chunks are stateful continuations,
// so a mid-stream failure cannot transparently move — the causal error
// surfaces, the endpoint is marked unhealthy, and the consumer decides
// whether to rerun. Streams are not hedged for the same reason. Each pull
// is in flight at the endpoint while it runs.
type logicalStream struct {
	l     *Logical
	ep    *Endpoint
	inner set.Iter
	// opened is when the open began; answered is set once the first pull
	// has been recorded in the endpoint's health and breaker.
	opened   time.Time
	answered bool
}

// Next pulls the next batch. The stream is recorded once, at its first
// successful pull: one latency observation measured from the open, and one
// breaker success. Later pulls mostly pop what a transport already buffered
// (the wire pump reads ahead), so timing them would drag the endpoint's
// latency toward zero and make selection prefer whichever replica last
// served a stream. A genuine failure on any pull (not the consumer's own
// cancellation) marks the endpoint unhealthy and counts against its breaker
// before surfacing.
func (s *logicalStream) Next(ctx context.Context) ([]string, error) {
	s.ep.inflight.Add(1)
	batch, err := s.inner.Next(ctx)
	s.ep.inflight.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			s.ep.brk.failure()
			publishBreaker(ctx, s.ep)
		}
		return nil, err
	}
	if !s.answered {
		s.answered = true
		s.ep.health.observe(time.Since(s.opened))
		s.ep.brk.success()
		publishBreaker(ctx, s.ep)
	}
	return batch, nil
}

// Close closes the underlying endpoint stream.
func (s *logicalStream) Close() error { return s.inner.Close() }

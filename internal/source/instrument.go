package source

import (
	"context"
	"fmt"
	"sync/atomic"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// queryHeaderBytes approximates the fixed framing of one wrapper request
// (operation tag, relation name, protocol overhead).
const queryHeaderBytes = 32

// Instrumented is the accounting layer: it charges every exchange with the
// source underneath to a simulated network, and to the byte counters and the
// latency histogram of the context's metrics. All plan executions in the
// experiments run against instrumented sources, so estimated costs can be
// compared with measured ones.
//
// It is also where an exchange is admitted: each one — a stream's open and
// each of its pulls included — holds one of the network's lanes for the
// source (netsim.Network.Acquire), so whoever calls a registered source, from
// whichever query, sees at most its link's MaxConns exchanges in flight. The
// wait and the hold show on the queue-depth and lane-occupancy gauges.
type Instrumented struct {
	Layer
	net    *netsim.Network
	names  *obs.SpanNames // exchange span names, by (kind, source)
	meters atomic.Pointer[meters]
}

// meters are the series an exchange charges, resolved in one registry: an
// exchange would otherwise look each one up by name and labels, under the
// registry's locks, every time it charges it.
type meters struct {
	reg               *obs.Registry
	queue, lanes      obs.Gauge
	sent, received    obs.Counter
	exchangeDurations obs.Histogram
}

// metersFor returns the source's series in the context's registry: the ones
// resolved last, unless that was another registry's.
func (s *Instrumented) metersFor(ctx context.Context) *meters {
	reg := obs.Meter(ctx)
	if m := s.meters.Load(); m != nil && m.reg == reg {
		return m
	}
	name := s.Name()
	m := &meters{
		reg:      reg,
		sent:     reg.Counter(obs.MBytesSent, "source", name),
		received: reg.Counter(obs.MBytesReceived, "source", name),
	}
	if s.net != nil {
		// Without a network nothing is admitted or timed, and these series
		// stay unmade.
		m.queue = reg.Gauge(obs.MSchedQueueDepth, "source", name)
		m.lanes = reg.Gauge(obs.MSchedLaneOccupancy, "source", name)
		m.exchangeDurations = reg.Histogram(obs.MExchangeSeconds, "source", name)
	}
	s.meters.Store(m)
	return m
}

// Instrument wraps src, recording exchanges on network (nil charges the
// context's metrics alone). A source is instrumented once: under a second
// Instrumented on the same network an exchange would wait for the lane its
// outer layer holds.
func Instrument(src Source, network *netsim.Network) *Instrumented {
	s := &Instrumented{net: network, names: obs.NewSpanNames(func(kind, src string) string { return kind + " @ " + src })}
	s.Layer = Over(src, s.exchange)
	return s
}

// exchange is the layer's handler: the exchange span envelops the operation
// underneath, so wire round trips (and their grafted server fragments) run
// inside it and RenderTrace can split the exchange line into mediator-wait /
// server-work / wire-time. Request bytes are the fixed framing plus every
// argument shipped (condition text, semijoin set, binding, filter), response
// bytes whatever came back; an unanswered binding costs no response.
func (s *Instrumented) exchange(ctx context.Context, call Call) (Reply, error) {
	m := s.metersFor(ctx)
	if err := s.admit(ctx, m); err != nil {
		return Reply{}, err
	}
	defer s.leave(m)
	if call.Streamed() {
		// Every delivered batch is recorded as its own exchange — the first
		// as the "sq" request/response, later ones as "sqc" continuation
		// chunks with no request payload. Under a real-time network this is
		// what makes streaming measurable: the first batch completes its
		// (small) exchange long before the materialized transfer of the whole
		// result would have, at the price of per-chunk request overhead.
		reply, err := Do(ctx, s.Source, call)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Stream: &instrumentedStream{src: s, inner: reply.Stream, cond: call.Cond}}, nil
	}
	kind := call.Op.Kind()
	ctx, sp := s.begin(ctx, kind)
	reply, err := Do(ctx, s.Source, call)
	if err != nil {
		sp.End(err)
		return reply, err
	}
	req := queryHeaderBytes + call.Items.Bytes() + len(call.Item)
	if call.Cond != nil {
		req += cond.TextLen(call.Cond)
	}
	if call.Filter != nil {
		req += call.Filter.Bytes()
	}
	resp := reply.Items.Bytes() + tuplesBytes(reply.Tuples)
	if reply.Rel != nil {
		resp += reply.Rel.Bytes()
	}
	if reply.Stats != nil {
		resp += reply.Stats.Size()
	}
	if reply.Match {
		resp += len(call.Item)
	}
	if err := s.record(ctx, m, sp, kind, req, resp); err != nil {
		return Reply{}, err
	}
	return reply, nil
}

// admit takes a lane of the source's link for one exchange, counted on the
// queue-depth gauge while it waits and on the lane-occupancy gauge until leave
// gives it back. Without a network there is no link, so nothing to admit.
func (s *Instrumented) admit(ctx context.Context, m *meters) error {
	if s.net == nil {
		return nil
	}
	m.queue.Inc()
	err := s.net.Acquire(ctx, s.Name())
	m.queue.Dec()
	if err != nil {
		return fmt.Errorf("source %s: %w", s.Name(), err)
	}
	m.lanes.Inc()
	return nil
}

// leave frees the lane admit took.
func (s *Instrumented) leave(m *meters) {
	if s.net != nil {
		m.lanes.Dec()
		s.net.Release(s.Name())
	}
}

// begin opens the exchange span; record ends it on success, the caller on an
// error from underneath.
func (s *Instrumented) begin(ctx context.Context, kind string) (context.Context, *obs.Span) {
	name := s.Name()
	ctx, sp := obs.StartSpan(ctx, obs.KindExchange, s.names.Of(kind, name))
	sp.SetAttr(obs.String("source", name))
	return ctx, sp
}

// record accounts one completed exchange. The network charge honors ctx — in
// real-time network mode a deadline can interrupt the exchange, in which
// case the error (wrapping ctx.Err()) is returned and the caller must
// discard the operation's result. When the context carries an Obs, the
// exchange is also visible as per-source byte counters and a
// simulated-latency histogram, and the span begin opened is closed here.
func (s *Instrumented) record(ctx context.Context, m *meters, sp *obs.Span, kind string, reqBytes, respBytes int) error {
	name := s.Name()
	m.sent.Add(int64(reqBytes))
	m.received.Add(int64(respBytes))
	obs.LiveOf(ctx).Exchange(name, kind, int64(reqBytes+respBytes))
	if s.net != nil {
		d, err := s.net.Exchange(ctx, name, kind, reqBytes, respBytes)
		if err != nil {
			sp.End(err)
			return fmt.Errorf("source %s: %w", name, err)
		}
		m.exchangeDurations.Observe(d.Seconds())
		sp.SetAttr(obs.Duration("simElapsed", d))
	}
	sp.End(nil)
	return nil
}

// instrumentedStream charges one exchange per delivered batch, each pull
// under its own lane, so a slow consumer holds none. An empty result still
// records the one "sq" round trip, matching the materialized path.
type instrumentedStream struct {
	src     *Instrumented
	inner   set.Iter
	cond    cond.Cond
	started bool
}

func (it *instrumentedStream) Next(ctx context.Context) ([]string, error) {
	m := it.src.metersFor(ctx)
	if err := it.src.admit(ctx, m); err != nil {
		return nil, err
	}
	defer it.src.leave(m)
	batch, err := it.inner.Next(ctx)
	if err != nil {
		return nil, err
	}
	kind, req := "sqc", 0
	if !it.started {
		it.started = true
		kind, req = "sq", queryHeaderBytes+cond.TextLen(it.cond)
	} else if batch == nil {
		// Exhaustion after at least one batch: the last chunk already paid.
		return nil, nil
	}
	resp := 0
	for _, v := range batch {
		resp += len(v)
	}
	// The batch was pulled by a background pump, so its wire span cannot nest
	// here; the exchange span records the per-batch accounting only.
	ctx, sp := it.src.begin(ctx, kind)
	if err := it.src.record(ctx, m, sp, kind, req, resp); err != nil {
		return nil, err
	}
	return batch, nil
}

func (it *instrumentedStream) Close() error { return it.inner.Close() }

func tuplesBytes(tuples []relation.Tuple) int {
	n := 0
	for _, t := range tuples {
		for _, v := range t {
			n += v.Bytes()
		}
	}
	return n
}

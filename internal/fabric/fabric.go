// Package fabric turns a flat source roster into a two-level source fabric:
// one Logical source (the paper's R_j) backed by one or more physical
// replica Endpoints. The Logical implements source.Source, so every layer
// above it — executor, mediator, optimizer — keeps the paper's single-roster
// model while the fabric handles the operational weather real federations
// see (SkyQuery being the canonical exemplar):
//
//   - per-endpoint health tracking: an EWMA of observed exchange latencies
//     plus a consecutive-failure count;
//   - a three-state circuit breaker per endpoint (closed / open / half-open
//     with probe exchanges);
//   - replica selection by power-of-two-choices over the health score
//     (EWMA × (1 + in-flight load)), with ε-greedy exploration so a
//     recovered or degraded replica keeps producing fresh observations;
//   - hedged exchanges: when the primary replica exceeds a latency-
//     percentile deadline, a backup exchange launches on another replica
//     and the loser is cancelled through ctx;
//   - failover: a transiently failed exchange, or one whose answer broke its
//     operation's contract (source.ErrContract), re-issues on the next best
//     replica until every replica was tried, and only then surfaces an
//     ExhaustedError for the mediator's mid-query roster repair.
//
// The fabric admits nothing itself: an endpoint's source is instrumented
// against the replica's own link, and that link admits its exchanges
// (netsim's lanes, held by source.Instrumented) — both legs of a hedge, a
// failover's re-issue and every other caller of the replica alike. An
// endpoint counts its legs in flight for selection's load term.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// ErrExhausted marks an exchange that tried every replica of a logical
// source and watched each one fail. Use errors.Is(err, ErrExhausted) to
// classify; errors.As with *ExhaustedError recovers the logical source's
// name for roster repair.
var ErrExhausted = errors.New("fabric: replicas exhausted")

// ExhaustedError reports that every replica of a logical source failed one
// exchange. It wraps the last per-replica error, so transient causes stay
// visible to retry classification, and matches ErrExhausted via errors.Is.
type ExhaustedError struct {
	// Source is the logical source's name.
	Source string
	// Replicas is how many endpoints were tried.
	Replicas int
	// Kind is the exchange kind ("sq", "sjq", ...).
	Kind string
	// Last is the final replica's error.
	Last error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("fabric: %s: %s: all %d replicas failed: %v", e.Source, e.Kind, e.Replicas, e.Last)
}

// Is matches ErrExhausted.
func (e *ExhaustedError) Is(target error) bool { return target == ErrExhausted }

// Unwrap exposes the last replica error for cause classification.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Options are a Logical source's policy. The zero value speculates: it hedges
// stragglers and explores.
type Options struct {
	// NoSpeculation turns off both kinds of speculative work: hedged backup
	// exchanges and ε-greedy exploration. Selection is then power-of-two-
	// choices alone and every exchange runs on one replica at a time until it
	// fails over, so which replica answers follows from the health scores.
	NoSpeculation bool
}

// The fabric's tuning. The mediator adapts to its replicas from what it
// measures (latencies, failures), not from settings.
const (
	// failureThreshold consecutive failures trip an endpoint's breaker
	// closed→open.
	failureThreshold = 3
	// cooldown is how long an open breaker rejects selection before it
	// admits a half-open probe.
	cooldown = 250 * time.Millisecond
	// exploreProb is the ε of ε-greedy selection: the fraction of picks
	// routed to a uniformly random selectable replica instead of the
	// power-of-two-choices winner, keeping every replica's EWMA fresh.
	exploreProb = 0.05
	// hedgePercentile is the quantile of recent logical-exchange latencies
	// the primary must exceed before a backup launches.
	hedgePercentile = 0.95
	// hedgeMin floors the hedge deadline so noise-level percentiles do not
	// cause hedge storms.
	hedgeMin = time.Millisecond
)

// Endpoint is one physical replica of a logical source: the wrapped source
// plus its connection capacity, in-flight count, health score and circuit
// breaker.
type Endpoint struct {
	src      source.Source
	conns    int
	inflight atomic.Int64
	health   *health
	brk      *breaker
	legNames *obs.SpanNames // leg span names, by (kind, endpoint)
}

// NewEndpoint wraps src as a physical replica endpoint with the given
// connection capacity (the replica's link MaxConns; values below 1 mean a
// single connection), which sizes an emulated semijoin's fan-out over the
// logical source (ReplicaConns); the replica's link is what admits. Health
// and breaker state attach when the endpoint joins a Logical.
func NewEndpoint(src source.Source, conns int) *Endpoint {
	if conns < 1 {
		conns = 1
	}
	return &Endpoint{src: src, conns: conns,
		legNames: obs.NewSpanNames(func(kind, ep string) string { return kind + " leg @ " + ep })}
}

// Name is the endpoint's physical name (distinct from the logical name).
func (ep *Endpoint) Name() string { return ep.src.Name() }

// Source returns the wrapped physical source.
func (ep *Endpoint) Source() source.Source { return ep.src }

// BreakerState returns the endpoint's current circuit-breaker position.
func (ep *Endpoint) BreakerState() BreakerState { return ep.brk.State() }

// endpointScore orders replica selection: EWMA latency stretched by
// in-flight load. Zero until the first observation, so fresh replicas get
// traffic immediately.
func endpointScore(ep *Endpoint) float64 {
	return ep.health.score() * float64(1+ep.inflight.Load())
}

// CallStats accumulates fabric activity for one plan step. The executor
// installs one per step via WithCallStats so Result traces can attribute
// failovers and hedges exactly.
type CallStats struct {
	Failovers atomic.Int64
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
}

type callStatsKey struct{}

// WithCallStats returns a ctx whose fabric exchanges also count into cs.
func WithCallStats(ctx context.Context, cs *CallStats) context.Context {
	return context.WithValue(ctx, callStatsKey{}, cs)
}

func callStats(ctx context.Context) *CallStats {
	cs, _ := ctx.Value(callStatsKey{}).(*CallStats)
	return cs
}

// Stats is a Logical source's cumulative fabric activity.
type Stats struct {
	Failovers int64
	Hedges    int64
	HedgeWins int64
}

// Logical is one logical source backed by replica endpoints. It implements
// source.Source (and source.ItemStreamer), so everything above the source
// layer is replica-oblivious.
type Logical struct {
	source.Layer
	name   string
	opts   Options
	eps    []*Endpoint
	schema *relation.Schema
	caps   source.Capabilities

	mu  sync.Mutex
	rng *rand.Rand

	// ring holds recent whole-logical-exchange wall latencies across all
	// endpoints: the percentile basis of the hedge deadline.
	ring *latencyRing

	failovers atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

const (
	logicalRingSize = 64
	// hedgeMinSamples is how many logical exchanges must be observed before
	// hedging arms.
	hedgeMinSamples = 8
)

// NewLogical builds a logical source named name over the given replica
// endpoints. Replicas must export compatible schemas; the logical
// capability set is the intersection of the replicas' capabilities, so any
// replica can serve any exchange routed to the logical source.
func NewLogical(name string, eps []*Endpoint, opts Options) (*Logical, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("fabric: logical source %s: no endpoints", name)
	}
	seen := make(map[string]bool, len(eps)+1)
	seen[name] = true
	schema := eps[0].src.Schema()
	caps := eps[0].src.Caps()
	for _, ep := range eps {
		if ep.Name() == name {
			return nil, fmt.Errorf("fabric: logical source %s: endpoint name collides with logical name", name)
		}
		if seen[ep.Name()] {
			return nil, fmt.Errorf("fabric: logical source %s: duplicate endpoint name %q", name, ep.Name())
		}
		seen[ep.Name()] = true
		if !schema.Compatible(ep.src.Schema()) {
			return nil, fmt.Errorf("fabric: logical source %s: endpoint %s schema %s incompatible with %s",
				name, ep.Name(), ep.src.Schema(), schema)
		}
		c := ep.src.Caps()
		caps.NativeSemijoin = caps.NativeSemijoin && c.NativeSemijoin
		caps.PassedBindings = caps.PassedBindings && c.PassedBindings
		caps.BloomSemijoin = caps.BloomSemijoin && c.BloomSemijoin
		ep.health = &health{}
		ep.brk = &breaker{}
	}
	l := &Logical{
		name:   name,
		opts:   opts,
		eps:    eps,
		schema: schema,
		caps:   caps,
		// A fixed seed: one sequence of exchanges picks the same replicas
		// every time.
		rng:  rand.New(rand.NewSource(0)),
		ring: newLatencyRing(logicalRingSize),
	}
	l.Layer = source.Over(nil, l.exchange)
	return l, nil
}

// Name returns the logical source name (the optimizer's R_j).
func (l *Logical) Name() string { return l.name }

// Schema returns the common schema the replicas export.
func (l *Logical) Schema() *relation.Schema { return l.schema }

// Caps is the intersection of the replicas' capabilities.
func (l *Logical) Caps() source.Capabilities { return l.caps }

// Card delegates to the first replica: replicas hold the same data, so any
// endpoint's statistics describe the logical source.
func (l *Logical) Card() (tuples, distinct, bytes int) { return l.eps[0].src.Card() }

// Endpoints returns the replica endpoints in registration order.
func (l *Logical) Endpoints() []*Endpoint {
	out := make([]*Endpoint, len(l.eps))
	copy(out, l.eps)
	return out
}

// ReplicaConns maps each physical endpoint name to its connection capacity,
// for the executor's fan-out sizing.
func (l *Logical) ReplicaConns() map[string]int {
	out := make(map[string]int, len(l.eps))
	for _, ep := range l.eps {
		out[ep.Name()] = ep.conns
	}
	return out
}

// EndpointStates reports each endpoint's breaker position.
func (l *Logical) EndpointStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(l.eps))
	for _, ep := range l.eps {
		out[ep.Name()] = ep.brk.State()
	}
	return out
}

// Alive reports whether any replica's breaker is not open — i.e. the
// logical source may still answer exchanges.
func (l *Logical) Alive() bool {
	for _, ep := range l.eps {
		if ep.brk.State() != BreakerOpen {
			return true
		}
	}
	return false
}

// Stats returns the cumulative fabric activity counters.
func (l *Logical) Stats() Stats {
	return Stats{
		Failovers: l.failovers.Load(),
		Hedges:    l.hedges.Load(),
		HedgeWins: l.hedgeWins.Load(),
	}
}

// Scorecard is one endpoint's operational snapshot: health, breaker and
// load, plus the owning logical source's cumulative hedge/failover activity
// (repeated on each of its endpoints' rows). This is the payload of the
// mediator's /debug/endpoints admin view and cmd/fqtop's endpoint table.
//
// Scorecard rows are keyed by registered endpoint names only — the fabric
// never emits a row (or a metric label) for an endpoint outside the roster,
// so replica churn cannot grow the set unboundedly.
type Scorecard struct {
	Logical     string  `json:"logical"`
	Endpoint    string  `json:"endpoint"`
	Breaker     string  `json:"breaker"`
	EWMASeconds float64 `json:"ewmaSeconds"`
	Inflight    int     `json:"inflight"`
	ConsecFails int     `json:"consecFails"`
	Hedges      int64   `json:"hedges"`
	HedgeWins   int64   `json:"hedgeWins"`
	Failovers   int64   `json:"failovers"`
}

// Scorecards returns one row per registered endpoint, in registration
// order.
func (l *Logical) Scorecards() []Scorecard {
	st := l.Stats()
	out := make([]Scorecard, 0, len(l.eps))
	for _, ep := range l.eps {
		out = append(out, Scorecard{
			Logical:     l.name,
			Endpoint:    ep.Name(),
			Breaker:     ep.brk.State().String(),
			EWMASeconds: ep.health.score(),
			Inflight:    int(ep.inflight.Load()),
			ConsecFails: ep.health.consecutiveFails(),
			Hedges:      st.Hedges,
			HedgeWins:   st.HedgeWins,
			Failovers:   st.Failovers,
		})
	}
	return out
}

// pick selects the next replica for an exchange among those not yet tried:
// breaker-selectable endpoints are preferred (falling back to all untried
// ones, so exhaustion means every replica actually failed), ε-greedy
// exploration keeps every replica observed, and otherwise power-of-two-
// choices takes the lower health score. Nil when every replica was tried.
func (l *Logical) pick(tried map[*Endpoint]bool) *Endpoint {
	cands := make([]*Endpoint, 0, len(l.eps))
	for _, ep := range l.eps {
		if !tried[ep] {
			cands = append(cands, ep)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	pool := make([]*Endpoint, 0, len(cands))
	for _, ep := range cands {
		if ep.brk.selectable() {
			pool = append(pool, ep)
		}
	}
	if len(pool) == 0 {
		// Every untried breaker is open: the breaker gates preference, not
		// correctness — try the candidates anyway so ErrExhausted is honest.
		pool = cands
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(pool) == 1 {
		return pool[0]
	}
	if !l.opts.NoSpeculation && l.rng.Float64() < exploreProb {
		return pool[l.rng.Intn(len(pool))]
	}
	i := l.rng.Intn(len(pool))
	j := l.rng.Intn(len(pool) - 1)
	if j >= i {
		j++
	}
	a, b := pool[i], pool[j]
	if endpointScore(b) < endpointScore(a) {
		return b
	}
	return a
}

// pickBackup selects the hedge target: the best-scoring selectable replica
// other than the primary and the already-failed ones. Unlike pick it never
// falls back to open-breaker endpoints — a hedge is an optimization, not a
// correctness path.
func (l *Logical) pickBackup(primary *Endpoint, tried map[*Endpoint]bool) *Endpoint {
	var best *Endpoint
	var bestScore float64
	for _, ep := range l.eps {
		if ep == primary || tried[ep] || !ep.brk.selectable() {
			continue
		}
		s := endpointScore(ep)
		if best == nil || s < bestScore {
			best = ep
			bestScore = s
		}
	}
	return best
}

// hedgeDelay returns how long the primary may run before a backup launches,
// or 0 when hedging should not arm (disabled, no spare replica, or not
// enough latency history yet).
func (l *Logical) hedgeDelay(tried map[*Endpoint]bool) time.Duration {
	if l.opts.NoSpeculation || len(l.eps) < 2 {
		return 0
	}
	if len(tried) >= len(l.eps)-1 {
		return 0
	}
	if l.ring.count() < hedgeMinSamples {
		return 0
	}
	return max(l.ring.percentile(hedgePercentile), hedgeMin)
}

// exchange is the layer's handler: it runs call through the fabric — pick a
// replica, hedge if it straggles, fail over across replicas on transient
// errors and broken contracts, and surface *ExhaustedError only after every
// replica failed. A
// streamed selection opens the same way but is not hedged and then sticks to
// its endpoint (stream.go).
func (l *Logical) exchange(ctx context.Context, call source.Call) (source.Reply, error) {
	kind, streamed := call.Op.Kind(), call.Streamed()
	if streamed {
		kind = "sq stream"
	}
	if err := ctx.Err(); err != nil {
		return source.Reply{}, fmt.Errorf("fabric: %s: %s: %w", l.name, kind, err)
	}
	start := time.Now()
	tried := make(map[*Endpoint]bool, len(l.eps))
	var lastErr error
	for hop := 0; ; hop++ {
		ep := l.pick(tried)
		if ep == nil {
			return source.Reply{}, &ExhaustedError{Source: l.name, Replicas: len(l.eps), Kind: kind, Last: lastErr}
		}
		if hop > 0 {
			l.failovers.Add(1)
			if cs := callStats(ctx); cs != nil {
				cs.Failovers.Add(1)
			}
			obs.Meter(ctx).Counter(obs.MFailovers, "source", l.name).Inc()
		}
		var reply source.Reply
		var err error
		if streamed {
			reply, err = runOne(ctx, l, ep, call)
			tried[ep] = true
		} else {
			reply, err = attempt(ctx, l, ep, tried, kind, call)
		}
		if err == nil {
			if !streamed {
				el := time.Since(start)
				l.ring.observe(el)
				obs.Meter(ctx).Histogram(obs.MLogicalExchangeSeconds, "source", l.name).Observe(el.Seconds())
			}
			return reply, nil
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return source.Reply{}, fmt.Errorf("fabric: %s: %s: %w", l.name, kind, cerr)
		}
		if !source.IsTransient(err) && !errors.Is(err, source.ErrContract) {
			return source.Reply{}, err
		}
	}
}

// outcome is one replica leg's result.
type outcome struct {
	ep    *Endpoint
	reply source.Reply
	err   error
	sp    *obs.Span
}

// attempt runs call on the primary replica, hedging onto a backup when the
// primary outlives the latency-percentile deadline. Once a leg wins, the
// other is cancelled through ctx and awaited before return, so no goroutine
// outlives the attempt, none reads the call's items after it, and a losing
// leg's answer is given back. Replicas that genuinely failed are recorded
// in tried.
func attempt(ctx context.Context, l *Logical, primary *Endpoint, tried map[*Endpoint]bool, kind string, call source.Call) (source.Reply, error) {
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, 0, 2)
	launch := func(ep *Endpoint, role string) {
		lctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One span per leg, so hedge losers and failover legs are
			// visible in the trace with their endpoint and role; the wire
			// span (and any grafted server fragment) nests under it.
			sctx, sp := obs.StartSpan(lctx, obs.KindAttempt, ep.legNames.Of(kind, ep.Name()))
			sp.SetAttr(obs.String("endpoint", ep.Name()), obs.String("role", role))
			reply, err := runOne(sctx, l, ep, call)
			sp.End(err)
			// The buffer has room for every leg, so the send is non-blocking
			// in practice; the done case keeps an abandoned leg (attempt
			// returned, nobody reading) from stranding this goroutine.
			select {
			case results <- outcome{ep: ep, reply: reply, err: err, sp: sp}:
			case <-lctx.Done():
				set.Release(reply.Items)
			}
		}()
	}
	cancelAll := func() {
		for _, c := range cancels {
			c()
		}
	}
	defer func() {
		cancelAll()
		wg.Wait()
		// A leg nobody read lost the race: its answer is the attempt's
		// alone (source.Source), so it goes back.
		for len(results) > 0 {
			set.Release((<-results).reply.Items)
		}
	}()
	launch(primary, "primary")

	var hedgeC <-chan time.Time
	if d := l.hedgeDelay(tried); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}

	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case oc := <-results:
			pending--
			if oc.err == nil {
				if oc.ep != primary {
					l.hedgeWins.Add(1)
					if cs := callStats(ctx); cs != nil {
						cs.HedgeWins.Add(1)
					}
					obs.Meter(ctx).Counter(obs.MHedgeWins, "source", l.name).Inc()
				}
				oc.sp.SetAttr(obs.String("outcome", "won"))
				return oc.reply, nil
			}
			oc.sp.SetAttr(obs.String("outcome", "failed"))
			tried[oc.ep] = true
			if firstErr == nil {
				firstErr = oc.err
			}
		case <-hedgeC:
			hedgeC = nil
			backup := l.pickBackup(primary, tried)
			if backup != nil {
				l.hedges.Add(1)
				if cs := callStats(ctx); cs != nil {
					cs.Hedges.Add(1)
				}
				obs.Meter(ctx).Counter(obs.MHedges, "source", l.name).Inc()
				launch(backup, "hedge")
				pending++
			}
		case <-ctx.Done():
			return source.Reply{}, fmt.Errorf("fabric: %s: %s: %w", l.name, kind, ctx.Err())
		}
	}
	return source.Reply{}, firstErr
}

// runOne runs call on one endpoint, in flight for the whole leg: mark the
// breaker attempt, execute — the replica's link admits it underneath — and
// feed the outcome back into health and breaker state. A leg cancelled from
// above (the other replica won, or the caller gave up) is not evidence about
// this endpoint's health.
func runOne(ctx context.Context, l *Logical, ep *Endpoint, call source.Call) (source.Reply, error) {
	ep.inflight.Add(1)
	ep.brk.markAttempt()
	publishBreaker(ctx, ep)
	start := time.Now()
	reply, err := source.Do(ctx, ep.src, call)
	elapsed := time.Since(start)
	ep.inflight.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			ep.health.fail()
			ep.brk.failure()
			publishBreaker(ctx, ep)
		}
		return source.Reply{}, err
	}
	if reply.Stream != nil {
		// The open is one leg; each pull is its own (logicalStream.Next), so a
		// slow consumer holds no lane of the endpoint's link.
		// A successful open records nothing in the endpoint's health or
		// breaker: opening may carry no network exchange at all (the first
		// chunk pull does), so crediting it would let an endpoint that
		// reliably opens and then dies mid-stream reset its breaker on every
		// retry and never trip it. Success, and the latency from this open,
		// are recorded when the stream's first pull answers.
		reply.Stream = &logicalStream{l: l, ep: ep, inner: reply.Stream, opened: start}
		return reply, nil
	}
	ep.health.observe(elapsed)
	ep.brk.success()
	publishBreaker(ctx, ep)
	return reply, nil
}

// publishBreaker exports the endpoint's breaker position on the
// fq_breaker_state gauge.
func publishBreaker(ctx context.Context, ep *Endpoint) {
	obs.Meter(ctx).Gauge(obs.MBreakerState, "source", ep.Name()).Set(int64(ep.brk.State()))
}

// Package core is the public face of the fusion-query engine: a Mediator
// that registers autonomous sources (local or remote), accepts fusion
// queries in SQL or as condition lists, keeps a statistics catalog, picks a
// plan with one of the paper's algorithms, executes it, and optionally runs
// the second phase that fetches the matching entities' full records.
//
// The package glues together the substrates:
//
//	sqlparse  → fusion-pattern detection (Section 5)
//	stats     → sq_cost / sjq_cost estimation (Sections 2.4, 3)
//	optimizer → FILTER / SJ / SJA / greedy / SJA+ (Sections 3, 4)
//	exec      → the mediator runtime (Sections 2.3, 6)
//
// A Mediator is safe for concurrent use: queries may run concurrently with
// each other and with source registration. The roster is a value: every
// registration, removal and BumpEpoch publishes a new immutable roster, which
// owns what queries learn while it is current (the statistics catalog, the
// source-answer cache); a query takes the current one once and keeps it.
// Every entry point takes a context.Context first; cancellation propagates
// through planning, a statistics catalog build and every source exchange,
// and a cancelled query still returns the execution counters for the work
// already performed.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/sqlparse"
	"fusionq/internal/stats"
)

// Algorithm selects the optimization algorithm.
type Algorithm string

// The available optimization algorithms.
const (
	AlgoFilter     Algorithm = "filter"
	AlgoSJ         Algorithm = "sj"
	AlgoSJA        Algorithm = "sja"
	AlgoSJAPlus    Algorithm = "sja+"
	AlgoGreedySJ   Algorithm = "greedy-sj"
	AlgoGreedySJA  Algorithm = "greedy-sja"
	AlgoGreedyPlus Algorithm = "greedy-sja+"
	// AlgoGreedyAdaptive is the incremental greedy: the next condition is
	// picked by marginal cost against the running-set estimate.
	AlgoGreedyAdaptive Algorithm = "greedy-adaptive-sja"
	// AlgoResponseTime optimizes the parallel-execution response time
	// (the Section 6 future-work objective) instead of total work.
	AlgoResponseTime Algorithm = "rt-sja"
	// AlgoAdaptive decides each round at run time against the measured
	// running set (E15); its estimate is greedy-adaptive-sja's.
	AlgoAdaptive Algorithm = "adaptive"
)

// Algorithms lists every supported algorithm name: the rows of
// optimizer.Algorithms.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(optimizer.Algorithms))
	for i, row := range optimizer.Algorithms {
		out[i] = Algorithm(row.Name)
	}
	return out
}

// row resolves the name in the optimizer's table; the empty name is SJA+.
func (a Algorithm) row() (optimizer.Algorithm, error) {
	if a == "" {
		a = AlgoSJAPlus
	}
	for _, row := range optimizer.Algorithms {
		if row.Name == string(a) {
			return row, nil
		}
	}
	return optimizer.Algorithm{}, fmt.Errorf("core: unknown algorithm %q", string(a))
}

// Adaptive reports whether the algorithm decides its rounds at run time: its
// plan is an estimate, and executing it again re-decides every round, so
// there is no plan to cache.
func (a Algorithm) Adaptive() bool {
	row, err := a.row()
	return err == nil && row.Adaptive
}

// Options configure planning and execution of one query.
type Options struct {
	// Algorithm defaults to SJA+ (the paper's best pipeline).
	Algorithm Algorithm
	// Cache answers repeated selection and binding queries from the
	// mediator's cache of source answers, skipping source traffic for
	// answers already learned — within a query (across its rounds) and
	// across queries of one roster epoch. Sources are autonomous: call
	// Mediator.BumpEpoch when their contents may have changed, and queries
	// from then on start from an empty cache. Cached answers are items, so a
	// record-returning query still goes to its sources.
	Cache bool
	// Retries re-issues steps whose source queries fail transiently
	// (source.ErrTransient) up to this many times each, and likewise the
	// stats exchange that fills the statistics catalog. Context cancellation
	// is never retried.
	Retries int
	// Streaming executes the plan as a pull-based dataflow pipeline
	// (DESIGN.md §12): every step runs concurrently, item sets flow between
	// steps as bounded sorted batches (a stream's first of set.DefaultBatch
	// items, each later one double the one before up to set.MaxGrowth times
	// the first: set.Schedule), and the first answer batch surfaces before
	// the plan completes (Answer.Exec.FirstAnswer). The answer, records,
	// counters and honest-partial semantics are identical to materialized
	// execution; peak intermediate memory (Answer.Exec.PeakBytes) is bounded
	// by the largest batch instead of the largest intermediate set.
	// AlgoAdaptive queries are round-scheduled whatever this says: each round
	// is chosen from the measured size of the set the round before left.
	Streaming bool
	// Records asks for the answer entities' full records (Answer.Records)
	// besides their items. The planner prices where they come from, a fetch
	// round after the answer is known or the final round's own queries
	// (optimizer.Records), and the plan carries the choice.
	Records bool
}

// Answer is the result of one fusion query.
type Answer struct {
	// QueryID is the identifier minted for this query. Every span the query
	// recorded — and, for wire-backed sources, every server-side log line —
	// carries it.
	QueryID string
	// Trace holds the query's span trace — planning phases, plan steps,
	// retry attempts, source exchanges, per-leg fabric attempts and grafted
	// server fragments. Tracing is always on while the mediator has a flight
	// recorder (the default); the caller's context trace (obs.With) takes
	// precedence when present. Nil only after SetRecorder(nil) with no trace
	// in the caller's context.
	Trace *obs.Trace
	// Items are the merge-attribute values satisfying all conditions.
	Items set.Set
	// Owned says Items' buffer is the caller's outright (exec's
	// Result.AnswerOwned): once nobody reads Items or Exec.Vars, the caller
	// may give it back with set.Release. A caller that keeps the answer
	// need do nothing.
	Owned bool
	// Plan is the executed plan.
	Plan *plan.Plan
	// EstimatedCost is the optimizer's cost for the plan.
	EstimatedCost float64
	// Exec carries measured execution counters (source queries, simulated
	// total work and response time when a network is attached). After a
	// failed or cancelled execution it reports the work already performed.
	Exec *exec.Result
	// Records holds the answer entities' full records when the query asked
	// for them (Options.Records); nil otherwise (Fetch is the second phase
	// on its own).
	Records *relation.Relation
	// Repair is non-nil when the roster was repaired mid-query: a logical
	// source's replicas were exhausted, and the remaining conditions were
	// re-planned over the surviving sources. Items then satisfies the
	// honest envelope answer(survivors) ⊆ Items ⊆ answer(full roster).
	Repair *RepairInfo
}

// Mediator coordinates fusion-query processing over registered sources.
// All methods are safe for concurrent use. When a simulated network is
// attached, every query accounts the exchanges of its own execution
// (Answer.Exec): whatever else the network carries meanwhile — other
// queries, the statistics catalog — is not in it, and no query resets the
// network.
type Mediator struct {
	// mu serializes the roster's writers (publish) and guards metrics and
	// the recorder. No query takes it to read the roster.
	mu     sync.RWMutex
	schema *relation.Schema
	// cur is the current roster. A writer publishes a new one; a query loads
	// it once and keeps what it loaded.
	cur      atomic.Pointer[roster]
	metrics  *obs.Registry
	recorder *obs.Recorder
	// recorderSet distinguishes SetRecorder(nil) — recording deliberately
	// off — from the never-configured state that lazily gets the default.
	recorderSet bool

	describeOnce sync.Once
}

// roster is the mediator's registered sources as of one epoch, immutable once
// published: a query that holds one is unaffected by registrations, removals
// and BumpEpoch meanwhile. The epoch counts roster generations; plans and
// answers derived from one epoch's roster are stale at any other, and the
// service layer keys its caches by it.
type roster struct {
	epoch    uint64
	sources  []source.Source
	profiles []stats.SourceProfile
	// names are the sources' names in order. Problems and plans share the
	// slice; nothing writes to it.
	names   []string
	network *netsim.Network
	// learned is what queries have found out at this epoch. A roster of the
	// next epoch starts an empty one, so nothing learned at one epoch can
	// pass for knowledge of another, and an old epoch's goes with the last
	// query holding its roster.
	learned *learned
}

// New creates a mediator exporting the given common schema.
func New(schema *relation.Schema) *Mediator {
	m := &Mediator{schema: schema}
	m.cur.Store(&roster{learned: &learned{}})
	return m
}

// publish replaces the current roster by what change makes of it (nil: no
// change), one writer at a time, and returns the roster current afterwards.
// It is the only place a roster is stored.
func (m *Mediator) publish(change func(cur *roster) *roster) *roster {
	m.mu.Lock()
	defer m.mu.Unlock()
	if next := change(m.cur.Load()); next != nil {
		m.cur.Store(next)
	}
	return m.cur.Load()
}

// nextEpoch returns a copy of r one epoch on, with nothing learned yet.
func (r *roster) nextEpoch() *roster {
	next := *r
	next.epoch, next.learned = r.epoch+1, &learned{}
	return &next
}

// with returns the roster of the next epoch with src appended.
func (r *roster) with(src source.Source, profile stats.SourceProfile) *roster {
	next := r.nextEpoch()
	n := len(r.sources)
	next.sources = append(r.sources[:n:n], src)
	next.profiles = append(r.profiles[:n:n], profile)
	next.names = append(r.names[:n:n], src.Name())
	return next
}

// without returns r minus the named source, at r's epoch and sharing what was
// learned there (the roster a repair re-plans over); r itself when it has no
// such source.
func (r *roster) without(name string) *roster {
	for i, n := range r.names {
		if n != name {
			continue
		}
		out := *r
		out.sources = append(r.sources[:i:i], r.sources[i+1:]...)
		out.profiles = append(r.profiles[:i:i], r.profiles[i+1:]...)
		out.names = append(r.names[:i:i], r.names[i+1:]...)
		return &out
	}
	return r
}

// SetNetwork attaches a simulated network used for execution-time
// accounting. Sources registered afterwards are instrumented against it.
func (m *Mediator) SetNetwork(n *netsim.Network) {
	m.publish(func(cur *roster) *roster {
		next := *cur
		next.network = n
		return &next
	})
}

// Network returns the attached simulated network, if any.
func (m *Mediator) Network() *netsim.Network { return m.cur.Load().network }

// SetMetrics attaches a metrics registry receiving the mediator's query,
// scheduler, cache and exchange metrics. Without one, metrics go to the
// process-wide obs.Default() registry. A context-carried registry (obs.With)
// takes precedence for that query.
func (m *Mediator) SetMetrics(reg *obs.Registry) {
	obs.DescribeAll(reg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = reg
}

// metricsRegistry resolves the registry queries emit to, registering the
// canonical metric descriptions on first use.
func (m *Mediator) metricsRegistry() *obs.Registry {
	m.mu.RLock()
	reg := m.metrics
	m.mu.RUnlock()
	if reg == nil {
		reg = obs.Default()
	}
	m.describeOnce.Do(func() { obs.DescribeAll(reg) })
	return reg
}

// SetRecorder attaches a flight recorder replacing the default one, for
// example one that charges another registry, before serving queries; a nil
// recorder disables flight recording entirely.
func (m *Mediator) SetRecorder(rec *obs.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recorder = rec
	m.recorderSet = true
}

// Recorder returns the mediator's flight recorder, creating the default
// always-on one (obs.NewRecorder, charging the mediator's metrics registry)
// on first use. Returns nil after SetRecorder(nil).
func (m *Mediator) Recorder() *obs.Recorder {
	m.mu.RLock()
	rec, set := m.recorder, m.recorderSet
	m.mu.RUnlock()
	if rec != nil || set {
		return rec
	}
	reg := m.metricsRegistry()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recorder == nil && !m.recorderSet {
		m.recorder = obs.NewRecorder(obs.RecorderConfig{Metrics: reg})
	}
	return m.recorder
}

// Scorecards reports the per-endpoint replica-fabric scorecards of every
// replicated logical source, in registration order. Sources without a
// fabric (plain, non-replicated) contribute no rows.
func (m *Mediator) Scorecards() []fabric.Scorecard {
	out := []fabric.Scorecard{}
	for _, s := range m.cur.Load().sources {
		if l, ok := s.(*fabric.Logical); ok {
			out = append(out, l.Scorecards()...)
		}
	}
	return out
}

// admissible reports why src (a source, or a replica of one) may not join cur
// under the given name: the name is taken, or the schema is not the
// mediator's.
func (m *Mediator) admissible(cur *roster, name string, src source.Source) error {
	for _, n := range cur.names {
		if n == name {
			return fmt.Errorf("core: duplicate source name %q", name)
		}
	}
	if !m.schema.Compatible(src.Schema()) {
		return fmt.Errorf("core: source %s schema %s incompatible with mediator schema %s",
			src.Name(), src.Schema(), m.schema)
	}
	return nil
}

// linkProfile derives the cost profile of src from the link it is reached
// over, keeping estimated costs in simulated seconds.
func linkProfile(src source.Source, link netsim.Link) stats.SourceProfile {
	tuples, _, bytes := src.Card()
	avgItem := 8.0
	if tuples > 0 {
		if avg := float64(bytes) / float64(tuples); avg > 0 {
			// Items are roughly one attribute of the tuple.
			avgItem = avg / float64(src.Schema().NumColumns())
		}
	}
	profile := stats.ProfileFromLink(src.Name(), link, avgItem, stats.SupportOf(src.Caps()))
	if src.Caps().BloomSemijoin {
		profile.BloomBitsPerItem = bloom.DefaultBitsPerItem
	}
	return profile
}

// AddSource registers a source with an explicit cost profile. The source's
// schema must be compatible with the mediator's. When a network is attached
// the source is instrumented so executions are accounted.
func (m *Mediator) AddSource(src source.Source, profile stats.SourceProfile) error {
	return m.addSource(src, profile, nil)
}

// AddSourceLink registers a source whose cost profile is derived from a
// simulated network link, keeping estimated costs in simulated seconds.
func (m *Mediator) AddSourceLink(src source.Source, link netsim.Link) error {
	return m.addSource(src, linkProfile(src, link), &link)
}

// addSource publishes the roster with src in it. The link, when there is one,
// is set on the network only once the source is admissible, so a rejected
// registration leaves the registered source of that name as it was.
func (m *Mediator) addSource(src source.Source, profile stats.SourceProfile, link *netsim.Link) (err error) {
	m.publish(func(cur *roster) *roster {
		if err = m.admissible(cur, src.Name(), src); err != nil {
			return nil
		}
		if profile.Name == "" {
			profile.Name = src.Name()
		}
		if cur.network != nil {
			if link != nil {
				cur.network.SetLink(src.Name(), *link)
			}
			src = source.Instrument(src, cur.network)
		}
		return cur.with(src, profile)
	})
	return err
}

// RemoveSource unregisters the named source, reporting whether it was
// present. Removing a source moves the roster epoch: cached plans and
// answers derived from the old roster become stale. Queries already running
// keep the roster they took and are unaffected.
func (m *Mediator) RemoveSource(name string) (removed bool) {
	m.publish(func(cur *roster) *roster {
		next := cur.without(name)
		if removed = next != cur; !removed {
			return nil
		}
		return next.nextEpoch()
	})
	return removed
}

// Epoch returns the current roster epoch. The epoch moves on every source
// registration or removal and on BumpEpoch; two equal epochs guarantee the
// roster (names, order, membership) is unchanged between them. The
// statistics catalog belongs to it: the first plan after the epoch moves
// asks every source for its summary again.
func (m *Mediator) Epoch() uint64 { return m.cur.Load().epoch }

// BumpEpoch advances the roster epoch without changing the roster, and
// returns the new epoch. Call it when the sources' contents must be
// considered changed by an external signal (catalog churn, replica repair,
// administrative invalidation): the statistics catalog and the source
// answers cached under Options.Cache are dropped, and epoch-keyed caches
// above the mediator drop their derived state.
func (m *Mediator) BumpEpoch() uint64 { return m.publish((*roster).nextEpoch).epoch }

// ReplicaSpec describes one physical replica endpoint of a logical source:
// the replica's source (its name must be unique and distinct from the
// logical name) and its own network link.
type ReplicaSpec struct {
	// Source serves the replica's exchanges. Replicas of one logical source
	// must hold the same data under compatible schemas.
	Source source.Source
	// Link is the replica's network link when a simulated network is
	// attached; its MaxConns is the replica's connection capacity.
	Link netsim.Link
}

// AddReplicatedSource registers one logical source (the paper's R_j) backed
// by several physical replica endpoints, managed by the source fabric:
// per-endpoint health tracking and circuit breaking, fastest-healthy
// replica selection, hedged exchanges against stragglers, and failover
// across replicas on transient failures. Everything above the source layer
// — statistics, optimization, plans, answers — sees only the logical name.
//
// Each endpoint is instrumented against the attached network under its own
// link, so endpoint exchanges are admitted and accounted physically; the
// logical source itself is not re-instrumented. The cost profile is derived
// from the fastest replica link — the fabric routes to the fastest healthy
// replica, so that is the calibrated cost a planner should assume.
func (m *Mediator) AddReplicatedSource(name string, replicas []ReplicaSpec, opts fabric.Options) (logical *fabric.Logical, err error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("core: replicated source %s: no replicas", name)
	}
	m.publish(func(cur *roster) *roster {
		best := replicas[0].Link
		eps := make([]*fabric.Endpoint, len(replicas))
		for i, rep := range replicas {
			src := rep.Source
			if err = m.admissible(cur, name, src); err != nil {
				return nil
			}
			if cur.network != nil {
				src = source.Instrument(src, cur.network)
			}
			eps[i] = fabric.NewEndpoint(src, rep.Link.MaxConns)
			if rep.Link.Latency+rep.Link.RequestOverhead < best.Latency+best.RequestOverhead {
				best = rep.Link
			}
		}
		if logical, err = fabric.NewLogical(name, eps, opts); err != nil {
			return nil
		}
		if cur.network != nil {
			for _, rep := range replicas {
				cur.network.SetLink(rep.Source.Name(), rep.Link)
			}
		}
		return cur.with(logical, linkProfile(logical, best))
	})
	return logical, err
}

// Sources returns the registered sources in order; the slice is the
// caller's.
func (m *Mediator) Sources() []source.Source {
	return append([]source.Source(nil), m.cur.Load().sources...)
}

// SourceNames returns the registered source names in order; the slice is
// the caller's.
func (m *Mediator) SourceNames() []string {
	return append([]string(nil), m.cur.Load().names...)
}

// Schema returns the mediator's common schema.
func (m *Mediator) Schema() *relation.Schema { return m.schema }

// Problem assembles the optimization problem for the conditions from the
// statistics catalog: each source's summary gives the estimated cardinality
// of each condition there. Only a source the current roster has no summary
// of yet is asked for one (a single stats exchange, all such sources at
// once); with the catalog warm, Problem performs no source exchange.
func (m *Mediator) Problem(ctx context.Context, conds []cond.Cond, opts Options) (*optimizer.Problem, error) {
	return m.problem(ctx, m.cur.Load(), conds, opts)
}

func (m *Mediator) problem(ctx context.Context, r *roster, conds []cond.Cond, opts Options) (*optimizer.Problem, error) {
	if len(r.sources) == 0 {
		return nil, fmt.Errorf("core: no sources registered")
	}
	if len(conds) == 0 {
		return nil, fmt.Errorf("core: no conditions")
	}
	for i, c := range conds {
		if err := c.Check(m.schema); err != nil {
			return nil, fmt.Errorf("core: condition %d: %w", i+1, err)
		}
	}
	sts, err := r.learned.sourceStats(ctx, r.sources, conds, opts.Retries)
	if err != nil {
		return nil, err
	}
	table, err := stats.Build(conds, sts, r.profiles)
	if err != nil {
		return nil, err
	}
	return &optimizer.Problem{Conds: conds, Sources: r.names, Table: table}, nil
}

// Plan optimizes the conditions with the selected algorithm.
func (m *Mediator) Plan(ctx context.Context, conds []cond.Cond, opts Options) (optimizer.Result, error) {
	return m.plan(ctx, m.cur.Load(), conds, opts)
}

func (m *Mediator) plan(ctx context.Context, r *roster, conds []cond.Cond, opts Options) (optimizer.Result, error) {
	pr, err := m.problem(ctx, r, conds, opts)
	if err != nil {
		return optimizer.Result{}, err
	}
	row, err := opts.Algorithm.row()
	if err != nil {
		return optimizer.Result{}, err
	}
	res, err := row.Plan(pr)
	if err != nil || !opts.Records {
		return res, err
	}
	return optimizer.Records(pr, res)
}

// QueryCondsContext plans and executes a fusion query given as a condition
// list, under ctx.
//
// On failure — including cancellation and deadline expiry — the returned
// Answer is non-nil whenever execution had started: Answer.Exec reports the
// source queries, cache traffic and simulated work already paid for. The
// error wraps the cause, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) identify abandoned queries.
func (m *Mediator) QueryCondsContext(ctx context.Context, conds []cond.Cond, opts Options) (*Answer, error) {
	return m.instrumented(ctx, conds, func(qctx context.Context) (*Answer, error) {
		return m.queryConds(qctx, conds, opts)
	})
}

// ErrStalePlan reports that a pre-optimized plan handed to QueryPlannedContext no
// longer matches the mediator's roster: sources the plan references were
// removed or reordered since it was optimized. Callers holding plan caches
// should drop the plan and re-plan against the current roster.
var ErrStalePlan = errors.New("core: plan stale against current roster")

// QueryPlannedContext executes a previously optimized plan (from
// Mediator.Plan), skipping the statistics catalog and optimization — the
// repeated-query fast path a plan cache rides. The full query lifecycle is
// otherwise identical to QueryCondsContext: query identity, spans, metrics,
// flight recording, honest partials and mid-query roster repair all apply.
//
// The plan must have been optimized against this mediator's roster; if the
// roster has since lost or reordered the plan's sources, the query fails
// with an error wrapping ErrStalePlan before any source traffic. Options
// that change what is planned (Algorithm, Records) are ignored — the plan is
// the plan, records included.
func (m *Mediator) QueryPlannedContext(ctx context.Context, conds []cond.Cond, res optimizer.Result, opts Options) (*Answer, error) {
	return m.instrumented(ctx, conds, func(qctx context.Context) (*Answer, error) {
		return m.queryPlanned(qctx, res, opts)
	})
}

// instrumented wraps one query body with the whole observability lifecycle:
// fresh query identity, span trace, metrics registry, flight recording, and
// the fq_queries_total / fq_query_seconds charge.
func (m *Mediator) instrumented(ctx context.Context, conds []cond.Cond, body func(context.Context) (*Answer, error)) (*Answer, error) {
	// Each query gets a fresh identity. The trace and registry are inherited
	// from the caller's context when present, created or defaulted
	// otherwise. While a flight recorder is active (the default), tracing is
	// always on: the recorder's retention policy, not a per-query flag,
	// decides which traces survive.
	parent := obs.From(ctx)
	o := &obs.Obs{QueryID: obs.NewQueryID(), Trace: parent.Trace, Metrics: parent.Metrics}
	rec := m.Recorder()
	if o.Trace == nil && rec != nil {
		o.Trace = obs.NewTrace()
	}
	if o.Metrics == nil {
		o.Metrics = m.metricsRegistry()
	}
	o.Live = rec.Begin(o.QueryID, condsText(conds))
	ctx = obs.With(ctx, o)

	qctx, qspan := obs.StartSpan(ctx, obs.KindQuery, "fusion query")
	start := time.Now()
	ans, err := body(qctx)
	qspan.End(err)
	o.Metrics.Counter(obs.MQueries, "status", queryStatus(err)).Inc()
	o.Metrics.Histogram(obs.MQuerySeconds).Observe(time.Since(start).Seconds())
	info := obs.EndInfo{Err: err, Trace: o.Trace}
	if ans != nil {
		ans.QueryID = o.QueryID
		ans.Trace = o.Trace
		info.Items = ans.Items.Len()
		info.Repaired = ans.Repair != nil
		if ans.Exec != nil {
			info.Hedges = ans.Exec.Hedges
			info.Failovers = ans.Exec.Failovers
		}
	}
	rec.End(o.Live, info)
	return ans, err
}

// condsText renders a condition list as the query text shown by the live
// registry and the flight recorder.
func condsText(conds []cond.Cond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// queryStatus classifies a query's outcome for the fq_queries_total label.
func queryStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancel"
	default:
		return "error"
	}
}

// queryConds is the body of QueryCondsContext, running with the query's Obs
// installed in ctx.
func (m *Mediator) queryConds(ctx context.Context, conds []cond.Cond, opts Options) (*Answer, error) {
	r := m.cur.Load()
	pctx, psp := obs.StartSpan(ctx, obs.KindPhase, "plan")
	res, err := m.plan(pctx, r, conds, opts)
	psp.End(err)
	if err != nil {
		return nil, err
	}
	return m.execute(ctx, r, opts, res)
}

// queryPlanned is the body of QueryPlannedContext: validate the plan against
// the current roster, then execute it exactly as queryConds would, minus the
// plan phase.
func (m *Mediator) queryPlanned(ctx context.Context, res optimizer.Result, opts Options) (*Answer, error) {
	if res.Plan == nil {
		return nil, fmt.Errorf("core: planned query: nil plan")
	}
	r := m.cur.Load()
	// The plan addresses sources by index into Plan.Sources; execution is
	// sound iff the roster's leading sources still carry those names in that
	// order (the roster may have grown — appended sources leave existing
	// indexes aligned).
	if len(r.sources) < len(res.Plan.Sources) {
		return nil, fmt.Errorf("core: plan names %d sources, roster has %d: %w",
			len(res.Plan.Sources), len(r.sources), ErrStalePlan)
	}
	for i, name := range res.Plan.Sources {
		if r.names[i] != name {
			return nil, fmt.Errorf("core: plan source %d is %q, roster has %q: %w",
				i, name, r.names[i], ErrStalePlan)
		}
	}
	return m.execute(ctx, r, opts, res)
}

// executor wires the roster and the query's execution options into the
// executor every entry point runs on. A round's independent source queries
// overlap (Section 6's response-time direction); the link admits, so each
// source sees at most its MaxConns exchanges (default 1) from all our
// queries together, and total work is what it would be one exchange after
// another.
func (r *roster) executor(opts Options) *exec.Executor {
	ex := &exec.Executor{
		Sources: r.sources, Network: r.network,
		Retries: opts.Retries, Streaming: opts.Streaming,
	}
	if opts.Cache {
		ex.Cache = r.learned.answerCache()
	}
	return ex
}

// execute is the execute phase of a planned query and what follows it: run
// the plan (its records included), fall back to mid-query roster repair when
// a logical source is exhausted, and package the answer or the honest
// partial. The answer's plan is the one that ran (an adaptive plan's
// decided rounds).
func (m *Mediator) execute(ctx context.Context, r *roster, opts Options, res optimizer.Result) (*Answer, error) {
	ectx, esp := obs.StartSpan(ctx, obs.KindPhase, "execute")
	run, err := r.executor(opts).Run(ectx, res.Plan)
	esp.End(err)
	if err != nil {
		if ans, rerr, handled := m.tryRepair(ctx, r, opts, run, res.Cost, err); handled {
			return ans, rerr
		}
		if run == nil {
			return nil, err
		}
		return &Answer{Items: run.Answer, Plan: run.Plan, Exec: run}, err
	}
	return &Answer{Items: run.Answer, Owned: run.AnswerOwned, Plan: run.Plan, EstimatedCost: res.Cost, Exec: run, Records: run.Records}, nil
}

// Query parses a fusion-query SQL statement, verifies the fusion pattern,
// and plans and executes it under ctx; see QueryCondsContext for the
// cancellation contract.
func (m *Mediator) Query(ctx context.Context, sql string, opts Options) (*Answer, error) {
	fq, err := sqlparse.ParseFusion(sql, m.schema)
	if err != nil {
		return nil, err
	}
	return m.QueryCondsContext(ctx, fq.Conds, opts)
}

// Fetch runs the second phase (Section 1): retrieving the full records of
// the answer items from every source.
func (m *Mediator) Fetch(ctx context.Context, items set.Set) (*relation.Relation, error) {
	return exec.FetchAnswer(ctx, items, m.cur.Load().sources)
}

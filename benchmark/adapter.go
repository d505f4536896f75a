package main

// adapter.go is the only file of the benchmark that imports the program
// under test. Every exported name the benchmark depends on appears here,
// so a refactor of internal/ sees exactly what the benchmark pins (the
// list is repeated in README.md). Nothing under internal/ or cmd/ is
// changed for the benchmark: layers are measured from outside, by timing
// calls into their exported functions.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/oracle"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/service"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/sqlparse"
	"fusionq/internal/stats"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

const (
	loopback = "127.0.0.1:0"
	tenant   = "bench"
)

// deploySpec sizes a deployment's data and says how the mediator reaches
// its sources.
type deploySpec struct {
	sources, tuples, universe int
	// attrs is the number of integer attributes A1..An beside the merge
	// attribute ID.
	attrs int
	// replicas, when positive, puts each logical source behind that many
	// wire servers on loopback, reached through wire.Client under the
	// replica fabric; zero registers the in-process wrappers directly.
	replicas int
	// realTime is the netsim real-time scale of an in-process deployment;
	// zero keeps exchanges instantaneous, so the run is CPU-bound.
	realTime float64
}

// engineSpec holds the engine settings a workload varies; zero values are
// the defaults cmd/fqd runs with.
type engineSpec struct {
	answerEntries int
	answerTTL     time.Duration
}

// deployment is one built world: data, mediator, engine and the fqd-style
// TCP server in front of it, all in this process.
type deployment struct {
	spec deploySpec
	dataset
	reg *obs.Registry
	med *core.Mediator
	eng *service.Engine
	srv *service.Server

	// Wire-backed deployments only: one server, client and served wrapper
	// per replica, in source-major order.
	wireServers  []*wire.Server
	wireClients  []*wire.Client
	wireWrappers []*source.Wrapper
}

// dataset is the raw data of a deployment, which outlives it for the
// correctness gate.
type dataset struct {
	relations []*relation.Relation
	schema    *relation.Schema
}

func discardLog(string, ...interface{}) {}

// linkFor gives source j the link service.DeployConfig.Build gives it, so
// the wire-backed deployment is costed like the in-process ones.
func linkFor(j int) netsim.Link {
	const base = 2 * time.Millisecond
	return netsim.Link{
		Latency:         base + base*time.Duration(j)/2,
		BytesPerSec:     1 << 20,
		RequestOverhead: base / 2,
		MaxConns:        4,
	}
}

// buildDeployment synthesizes the data from seed and brings the whole
// stack up. rec, when non-nil, puts the timing decorator under the
// wire-backed replicas; in-process sources are decorated at the staged
// calls instead (see stagedSources).
func buildDeployment(ctx context.Context, spec deploySpec, eng engineSpec, seed int64, rec *recorder) (*deployment, error) {
	d := &deployment{spec: spec, reg: obs.NewRegistry()}
	var err error
	if spec.replicas > 0 {
		err = d.buildRemote(ctx, seed, rec)
	} else {
		err = d.buildLocal(seed)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	d.eng = service.NewEngine(d.med, service.Config{
		Answers: service.AnswerCacheConfig{TTL: eng.answerTTL, MaxEntries: eng.answerEntries},
		Options: core.Options{},
		Metrics: d.reg,
	})
	d.srv, err = service.Serve(d.eng, loopback, service.ServerConfig{Logf: discardLog, Metrics: d.reg})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) buildLocal(seed int64) error {
	dep, err := service.DeployConfig{
		Scenario: "synth",
		Seed:     seed,
		Sources:  d.spec.sources,
		Tuples:   d.spec.tuples,
		Universe: d.spec.universe,
		Conds:    d.spec.attrs,
		RealTime: d.spec.realTime,
		Metrics:  d.reg,
	}.Build()
	if err != nil {
		return err
	}
	d.med, d.schema, d.relations = dep.Mediator, dep.Scenario.Schema, dep.Scenario.Relations
	return nil
}

func (d *deployment) buildRemote(ctx context.Context, seed int64, rec *recorder) error {
	sel := make([]float64, d.spec.attrs)
	for i := range sel {
		sel[i] = 0.5 // only sets the number of attributes; queries bring their own thresholds
	}
	sc, err := workload.Synth(workload.SynthConfig{
		Seed:            seed,
		NumSources:      d.spec.sources,
		TuplesPerSource: d.spec.tuples,
		Universe:        d.spec.universe,
		Selectivity:     sel,
	})
	if err != nil {
		return err
	}
	d.schema, d.relations = sc.Schema, sc.Relations
	network := netsim.NewNetwork(seed)
	d.med = core.New(sc.Schema)
	d.med.SetNetwork(network)
	d.med.SetMetrics(d.reg)
	caps := source.Capabilities{NativeSemijoin: true, PassedBindings: true}
	for j, rel := range sc.Relations {
		logical := fmt.Sprintf("R%d", j+1)
		specs := make([]core.ReplicaSpec, d.spec.replicas)
		for r := range specs {
			w := source.NewWrapper(fmt.Sprintf("%s-%c", logical, 'a'+r), source.NewRowBackend(rel), caps)
			srv, err := wire.ServeConfig(w, loopback, wire.Config{Logf: discardLog, Metrics: d.reg})
			if err != nil {
				return err
			}
			d.wireServers = append(d.wireServers, srv)
			cli, err := wire.DialContext(ctx, srv.Addr())
			if err != nil {
				return err
			}
			d.wireClients = append(d.wireClients, cli)
			d.wireWrappers = append(d.wireWrappers, w)
			var src source.Source = cli
			if rec != nil {
				src = &timedSource{inner: cli, rec: rec}
			}
			specs[r] = core.ReplicaSpec{Source: src, Link: linkFor(j)}
		}
		if _, err := d.med.AddReplicatedSource(logical, specs, fabric.Options{}); err != nil {
			return err
		}
	}
	return nil
}

// close tears the stack down front to back and waits for the servers'
// goroutines. Closing is best effort: a run that got its replies has
// nothing left to lose to a close error.
func (d *deployment) close() {
	if d.srv != nil {
		_ = d.srv.Close()
	}
	for _, c := range d.wireClients {
		_ = c.Close()
	}
	for _, s := range d.wireServers {
		_ = s.Close()
	}
}

func (d *deployment) bumpEpoch() { d.med.BumpEpoch() }

// queryClient is one closed-loop client: its own TCP connection to the
// service, as an fqd user would hold.
type queryClient struct{ cli *service.Client }

// reply is what a client saw for one query.
type reply struct {
	items        []string
	planCached   bool
	answerCached bool
}

func (d *deployment) dial(ctx context.Context, chunk int) (*queryClient, error) {
	cli, err := service.DialService(ctx, d.srv.Addr())
	if err != nil {
		return nil, err
	}
	cli.Chunk = chunk
	return &queryClient{cli: cli}, nil
}

func (c *queryClient) query(ctx context.Context, q query) (reply, error) {
	r, err := c.cli.Query(ctx, tenant, q.conds, q.stream)
	if err != nil {
		return reply{}, err
	}
	return reply{items: r.Items, planCached: r.PlanCached, answerCached: r.AnswerCached}, nil
}

func (c *queryClient) close() { _ = c.cli.Close() }

// isShed reports whether admission control refused the query.
func isShed(err error) bool {
	var shed *service.ShedError
	return errors.As(err, &shed)
}

// reference computes the query's answer with the oracle's naive executor
// over the raw relations; it shares no code with the planner or executor.
func (d dataset) reference(q query) ([]string, error) {
	conds, err := service.ParseConds(q.conds)
	if err != nil {
		return nil, err
	}
	ans, err := oracle.ReferenceAnswer(&workload.Scenario{Schema: d.schema, Conds: conds, Relations: d.relations})
	if err != nil {
		return nil, err
	}
	return ans.Items(), nil
}

// counters is the part of the program's own accounting the benchmark
// reads: metric-registry totals and the simulated network's ledger.
type counters struct {
	exchanges     float64 // count of fq_exchange_seconds
	exchangeSec   float64 // sum of fq_exchange_seconds: simulated total work
	sourceBytes   float64 // fq_source_bytes_sent_total + fq_source_bytes_received_total
	planHits      float64
	planMisses    float64
	answerHits    float64
	answerMisses  float64
	admitted      float64
	shed          float64
	streamBatches float64
	wireBytes     float64 // fq_wire_bytes_in_total + fq_wire_bytes_out_total
	wireErrors    float64
	hedges        float64
	failovers     float64
	logicalCalls  float64 // count of fq_logical_exchange_seconds
	netsimLog     float64 // len(Network.Log()) right now
}

func (d *deployment) counters() counters {
	var c counters
	for _, f := range d.reg.Snapshot() {
		var total, count, sum float64
		for _, p := range f.Points {
			total += float64(p.Value)
			count += float64(p.Count)
			sum += p.Sum
		}
		switch f.Name {
		case obs.MExchangeSeconds:
			c.exchanges, c.exchangeSec = count, sum
		case obs.MBytesSent, obs.MBytesReceived:
			c.sourceBytes += total
		case obs.MPlanCacheHits:
			c.planHits = total
		case obs.MPlanCacheMisses:
			c.planMisses = total
		case obs.MAnswerCacheHits:
			c.answerHits = total
		case obs.MAnswerCacheMisses:
			c.answerMisses = total
		case obs.MAdmitted:
			c.admitted = total
		case obs.MShed:
			c.shed = total
		case obs.MStreamBatches:
			c.streamBatches = total
		case obs.MWireBytesIn, obs.MWireBytesOut:
			c.wireBytes += total
		case obs.MWireErrors:
			c.wireErrors = total
		case obs.MHedges:
			c.hedges = total
		case obs.MFailovers:
			c.failovers = total
		case obs.MLogicalExchangeSeconds:
			c.logicalCalls = count
		}
	}
	c.netsimLog = float64(len(d.med.Network().Log()))
	return c
}

// ---- timing decorator ------------------------------------------------------

// timedSource records one span per call into the source it wraps. It
// records only under a context that carries a query (withQuery), so the
// same wrapped source serves traced and untraced calls.
type timedSource struct {
	inner source.Source
	rec   *recorder
}

var (
	_ source.Source       = (*timedSource)(nil)
	_ source.ItemStreamer = (*timedSource)(nil)
)

func (t *timedSource) span(ctx context.Context, name string) (context.Context, *openSpan) {
	if _, traced := ctx.Value(spanCtxKey{}).(spanRef); !traced {
		return ctx, nil
	}
	return t.rec.start(ctx, name)
}

func (t *timedSource) Name() string              { return t.inner.Name() }
func (t *timedSource) Schema() *relation.Schema  { return t.inner.Schema() }
func (t *timedSource) Caps() source.Capabilities { return t.inner.Caps() }
func (t *timedSource) Card() (int, int, int)     { return t.inner.Card() }

func (t *timedSource) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	ctx, sp := t.span(ctx, "source.select")
	out, err := t.inner.Select(ctx, c)
	sp.end(out.Len())
	return out, err
}

func (t *timedSource) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	ctx, sp := t.span(ctx, "source.semijoin")
	out, err := t.inner.Semijoin(ctx, c, y)
	sp.end(out.Len())
	return out, err
}

func (t *timedSource) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	ctx, sp := t.span(ctx, "source.other")
	ok, err := t.inner.SelectBinding(ctx, c, item)
	sp.end(1)
	return ok, err
}

func (t *timedSource) Load(ctx context.Context) (*relation.Relation, error) {
	ctx, sp := t.span(ctx, "source.other")
	rel, err := t.inner.Load(ctx)
	n := 0
	if rel != nil {
		n = rel.Len()
	}
	sp.end(n)
	return rel, err
}

func (t *timedSource) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	ctx, sp := t.span(ctx, "source.other")
	out, err := t.inner.Fetch(ctx, items)
	sp.end(len(out))
	return out, err
}

func (t *timedSource) SelectRecords(ctx context.Context, c cond.Cond) ([]relation.Tuple, error) {
	ctx, sp := t.span(ctx, "source.other")
	out, err := t.inner.SelectRecords(ctx, c)
	sp.end(len(out))
	return out, err
}

func (t *timedSource) SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error) {
	ctx, sp := t.span(ctx, "source.other")
	out, err := t.inner.SemijoinRecords(ctx, c, y)
	sp.end(len(out))
	return out, err
}

func (t *timedSource) SemijoinBloom(ctx context.Context, c cond.Cond, f *bloom.Filter) (set.Set, error) {
	ctx, sp := t.span(ctx, "source.other")
	out, err := t.inner.SemijoinBloom(ctx, c, f)
	sp.end(out.Len())
	return out, err
}

// SelectStream keeps the inner source's chunked transfer (or its
// materialized fallback) and times every batch pull.
func (t *timedSource) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	octx, sp := t.span(ctx, "source.stream_open")
	it, err := source.OpenSelectStream(octx, t.inner, c, batch)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return &timedIter{inner: it, src: t}, nil
}

type timedIter struct {
	inner set.Iter
	src   *timedSource
}

func (it *timedIter) Next(ctx context.Context) ([]string, error) {
	ctx, sp := it.src.span(ctx, "source.stream_next")
	batch, err := it.inner.Next(ctx)
	sp.end(len(batch))
	return batch, err
}

func (it *timedIter) Close() error { return it.inner.Close() }

// stagedSources returns the roster the staged executor and statistics
// calls run over: the mediator's own sources, each under the timing
// decorator. A wire-backed deployment already carries the decorator under
// its replicas (where it times the wire round trip), and the fabric's
// logical sources must keep their own type for the executor to schedule
// them, so that roster is returned as it is.
func (d *deployment) stagedSources(rec *recorder) []source.Source {
	srcs := d.med.Sources()
	if d.spec.replicas > 0 {
		return srcs
	}
	for j, s := range srcs {
		srcs[j] = &timedSource{inner: s, rec: rec}
	}
	return srcs
}

// ---- staged replay ---------------------------------------------------------

// The ladder path a query took, as the "path" sample records it.
const (
	pathCold         = 0.0
	pathPlanCached   = 1.0
	pathAnswerCached = 2.0
)

// tracer replays queries stage by stage through the exported functions of
// each layer, at concurrency 1, recording one span per call.
type tracer struct {
	d      *deployment
	rec    *recorder
	adm    *service.Admission
	staged []source.Source
	// probe is a second engine over the deployment's mediator, behind its
	// own listener and client, whose answer cache is on whatever the
	// workload sets. A query answered twice by it, in process and over TCP,
	// is an answer hit both times, so the two differ by the transport alone
	// and not by the noise of two executions.
	probe    *service.Engine
	probeSrv *service.Server
	probeCli *queryClient
	// samples holds per-query numbers that are not span durations, by
	// name and query.
	samples map[string]map[int]float64
}

func newTracer(ctx context.Context, d *deployment, rec *recorder, chunk int) (*tracer, error) {
	t := &tracer{
		d: d, rec: rec,
		adm:     service.NewAdmission(service.AdmissionConfig{Metrics: obs.NewRegistry()}),
		staged:  d.stagedSources(rec),
		samples: map[string]map[int]float64{},
	}
	probeMetrics := obs.NewRegistry()
	t.probe = service.NewEngine(d.med, service.Config{
		Answers: service.AnswerCacheConfig{TTL: 10 * time.Minute},
		Options: core.Options{},
		Metrics: probeMetrics,
	})
	var err error
	t.probeSrv, err = service.Serve(t.probe, loopback, service.ServerConfig{Logf: discardLog, Metrics: probeMetrics})
	if err != nil {
		return nil, err
	}
	cli, err := service.DialService(ctx, t.probeSrv.Addr())
	if err != nil {
		t.close()
		return nil, err
	}
	cli.Chunk = chunk
	t.probeCli = &queryClient{cli: cli}
	return t, nil
}

func (t *tracer) close() {
	if t.probeCli != nil {
		t.probeCli.close()
	}
	_ = t.probeSrv.Close()
}

func (t *tracer) sample(qid int, name string, v float64) {
	if t.samples[name] == nil {
		t.samples[name] = map[int]float64{}
	}
	t.samples[name][qid] = v
}

// sqlOf renders the query in the SQL form of Section 2.2.
func (t *tracer) sqlOf(q query) string {
	merge := t.d.schema.Merge()
	var from, where []string
	for i, c := range q.conds {
		from = append(from, fmt.Sprintf("U u%d", i+1))
		if i > 0 {
			where = append(where, fmt.Sprintf("u1.%s = u%d.%s", merge, i+1, merge))
		}
		where = append(where, fmt.Sprintf("u%d.%s", i+1, c))
	}
	return fmt.Sprintf("SELECT u1.%s FROM %s WHERE %s", merge, strings.Join(from, ", "), strings.Join(where, " AND "))
}

// inOrder runs a and b, b first for odd queries: two timings that are
// compared swap places from query to query, so that going first counts as
// often for each as against it (layerMetrics balances the two orders).
func inOrder(qid int, a, b func() error) error {
	if qid%2 == 1 {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

// replay runs every stage for one query and returns the digest of the reply
// a client got for it over TCP. The Engine.Query call sees the caches as the
// workload's warm-up left them, so it takes the path the measured run
// takes; everything after it is staged.
func (t *tracer) replay(ctx context.Context, qid int, q query) (digest, error) {
	ctx = withQuery(ctx, qid)
	d, rec := t.d, t.rec
	opts := core.Options{Streaming: q.stream}

	_, sp := rec.start(ctx, "cond.parse")
	conds, err := service.ParseConds(q.conds)
	sp.end(len(conds))
	if err != nil {
		return digest{}, err
	}
	sql := t.sqlOf(q)
	_, sp = rec.start(ctx, "sqlparse.parse")
	fq, err := sqlparse.ParseFusion(sql, d.schema)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}
	if len(fq.Conds) != len(conds) {
		return digest{}, fmt.Errorf("sqlparse gave %d conditions, want %d", len(fq.Conds), len(conds))
	}

	// The whole ladder in process, and its own steps one by one. The steps
	// leave the caches as they find them, so either may go first.
	req := service.Request{Tenant: tenant, Conds: conds, Stream: q.stream}
	var res *service.Result
	err = inOrder(qid, func() error {
		lctx, sp := rec.start(ctx, "service.ladder")
		var err error
		res, err = d.eng.Query(lctx, req)
		sp.end(0)
		return err
	}, func() error {
		_, sp := rec.start(ctx, "service.admit")
		release, err := t.adm.Admit(ctx, tenant)
		if err != nil {
			return err
		}
		release()
		sp.end(0)
		_, sp = rec.start(ctx, "service.key")
		key, epoch := service.QueryKey(conds, opts.Algorithm), d.med.Epoch()
		sp.end(0)
		_, sp = rec.start(ctx, "service.answer_get")
		cached, hit := d.eng.AnswerCache().Get(key, epoch)
		sp.end(0)
		if hit {
			// What the ladder does with a hit: the cached items become a set.
			_, sp = rec.start(ctx, "set.new")
			set.New(cached...)
			sp.end(len(cached))
		}
		_, sp = rec.start(ctx, "service.plan_get")
		d.eng.PlanCache().Get(key, epoch)
		sp.end(0)
		return nil
	})
	if err != nil {
		return digest{}, err
	}
	path := pathCold
	switch {
	case res.AnswerCached:
		path = pathAnswerCached
	case res.PlanCached:
		path = pathPlanCached
	}
	t.sample(qid, "path", path)
	got := digestOf(res.Answer.Items.Slice())

	// The transport: the probe engine answers the query once, and then
	// serves the cached answer in process and over TCP.
	if _, err := t.probe.Query(ctx, req); err != nil {
		return digest{}, err
	}
	var rep reply
	err = inOrder(qid, func() error {
		_, sp := rec.start(ctx, "service.probe_engine")
		hit, err := t.probe.Query(ctx, req)
		sp.end(0)
		if err == nil && !hit.AnswerCached {
			err = errors.New("probe engine missed its answer cache")
		}
		return err
	}, func() error {
		_, sp := rec.start(ctx, "service.probe_client")
		var err error
		rep, err = t.probeCli.query(ctx, q)
		sp.end(len(rep.items))
		if err == nil && !rep.answerCached {
			err = errors.New("probe client missed the answer cache")
		}
		return err
	})
	if err != nil {
		return digest{}, err
	}
	if digestOf(rep.items) != got {
		return digest{}, errors.New("the reply over TCP and the in-process answer differ")
	}

	// Planning.
	pctx, sp := rec.start(ctx, "core.problem")
	pr, err := d.med.Problem(pctx, conds, opts)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}
	gctx, sp := rec.start(ctx, "stats.gather")
	sts := make([]stats.SourceStats, len(t.staged))
	profiles := make([]stats.SourceProfile, len(t.staged))
	network := d.med.Network()
	for j, src := range t.staged {
		if sts[j], err = stats.Gather(gctx, src, conds); err != nil {
			sp.end(0)
			return digest{}, err
		}
		profiles[j] = stats.ProfileFromLink(src.Name(), network.LinkFor(src.Name()), 8, stats.SupportOf(src.Caps()))
	}
	sp.end(0)
	_, sp = rec.start(ctx, "stats.build")
	_, err = stats.Build(conds, sts, profiles)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}
	_, sp = rec.start(ctx, "optimizer.sjaplus")
	opt, err := optimizer.SJAPlus(pr)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}
	t.sample(qid, "optimizer.plan_steps", float64(len(opt.Plan.Steps)))
	_, sp = rec.start(ctx, "plan.estimate")
	_, err = plan.EstimateCost(opt.Plan, pr.Table)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}

	// Execution in the query's own mode: over the decorated roster, and
	// with neither decorator nor recorder, which is what the mediator runs
	// and, beside the first, the cost of tracing itself. Then the other mode.
	var own *exec.Result
	execute := func(name string, streaming bool) (*exec.Result, error) {
		network.Reset()
		rctx, sp := rec.start(ctx, name)
		run, err := (&exec.Executor{Sources: t.staged, Network: network, Streaming: streaming}).Run(rctx, opt.Plan)
		sp.end(0)
		return run, err
	}
	ownName, otherName := "exec.run", "exec.stream_run"
	if q.stream {
		ownName, otherName = otherName, ownName
	}
	err = inOrder(qid, func() error {
		var err error
		own, err = execute(ownName, q.stream)
		return err
	}, func() error {
		network.Reset()
		_, sp := rec.start(ctx, "exec.plain")
		_, err := (&exec.Executor{Sources: d.med.Sources(), Network: network, Streaming: q.stream}).Run(untraced(ctx), opt.Plan)
		sp.end(0)
		return err
	})
	if err != nil {
		return digest{}, err
	}
	other, err := execute(otherName, !q.stream)
	if err != nil {
		return digest{}, err
	}
	materialized := own
	if q.stream {
		materialized = other
	}
	if w := own.TotalWork.Seconds(); w > 0 {
		t.sample(qid, "optimizer.est_over_measured", opt.Cost/w)
	}
	t.sample(qid, "exec.source_queries", float64(own.SourceQueries))
	t.sample(qid, "exec.first_answer_ms", float64(own.FirstAnswer)/float64(time.Millisecond))
	t.sample(qid, "exec.peak_kb", float64(own.PeakBytes)/1024)
	if err := t.setKernels(ctx, materialized); err != nil {
		return digest{}, err
	}

	// The mediator's two entry points, whole.
	cctx, sp := rec.start(ctx, "core.query_cold")
	_, err = d.med.QueryCondsContext(cctx, conds, opts)
	sp.end(0)
	if err != nil {
		return digest{}, err
	}
	// The planned entry point with the default flight recorder and with
	// none, each from an empty exchange log, so that the two differ by the
	// recorder alone.
	planned := func(name string, rec *obs.Recorder) func() error {
		return func() error {
			d.med.SetRecorder(rec)
			network.Reset()
			cctx, sp := t.rec.start(ctx, name)
			_, err := d.med.QueryPlannedContext(cctx, conds, opt, opts)
			sp.end(0)
			return err
		}
	}
	defaultRecorder := obs.NewRecorder(obs.RecorderConfig{Metrics: d.reg})
	err = inOrder(qid, planned("core.query_planned", defaultRecorder), planned("core.query_planned_norec", nil))
	d.med.SetRecorder(defaultRecorder)
	if err != nil {
		return digest{}, err
	}

	if d.spec.replicas > 0 {
		if err := t.wireAndFabric(ctx, qid, conds[0]); err != nil {
			return digest{}, err
		}
	}
	return got, nil
}

// setKernels times the mediator's set algebra, materialized and as merge
// iterators at the default batch, over the sets the query's own plan
// produced (every plan variable, in name order).
func (t *tracer) setKernels(ctx context.Context, run *exec.Result) error {
	names := make([]string, 0, len(run.Vars))
	for name := range run.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	sets := make([]set.Set, len(names))
	total := 0
	for i, name := range names {
		sets[i] = run.Vars[name]
		total += sets[i].Len()
	}
	if total == 0 {
		return nil
	}
	_, sp := t.rec.start(ctx, "set.union")
	var acc set.Set
	for _, s := range sets {
		acc = acc.Union(s)
	}
	sp.end(total)
	_, sp = t.rec.start(ctx, "set.intersect")
	acc = sets[0]
	for _, s := range sets[1:] {
		acc = acc.Intersect(s)
	}
	sp.end(total)
	for _, merge := range []struct {
		name string
		fn   func(int, ...set.Iter) set.Iter
	}{{"set.merge_union", set.MergeUnion}, {"set.merge_intersect", set.MergeIntersect}} {
		its := make([]set.Iter, len(sets))
		for i, s := range sets {
			its[i] = set.IterOf(s, set.DefaultBatch)
		}
		_, sp = t.rec.start(ctx, merge.name)
		_, err := set.Collect(ctx, merge.fn(set.DefaultBatch, its...))
		sp.end(total)
		if err != nil {
			return err
		}
	}
	return nil
}

// drain pulls one streamed selection to its end and counts the chunks.
func drain(ctx context.Context, src source.ItemStreamer, c cond.Cond) (int, error) {
	it, err := src.SelectStream(ctx, c, set.DefaultBatch)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	for chunks := 0; ; chunks++ {
		batch, err := it.Next(ctx)
		if err != nil || batch == nil {
			return chunks, err
		}
	}
}

// wireAndFabric times one selection through each transport tier of a
// wire-backed deployment next to the same selection made directly: the
// wire client against the wrapper its server serves, and the fabric's
// logical source against one of its own endpoints.
func (t *tracer) wireAndFabric(ctx context.Context, qid int, c cond.Cond) error {
	d, rec := t.d, t.rec
	k := qid % len(d.wireClients)
	cli, wrapper := d.wireClients[k], d.wireWrappers[k]
	_, sp := rec.start(ctx, "wire.select_rtt")
	out, err := cli.Select(ctx, c)
	sp.end(out.Len())
	if err != nil {
		return err
	}
	_, sp = rec.start(ctx, "wire.local_select")
	_, err = wrapper.Select(ctx, c)
	sp.end(out.Len())
	if err != nil {
		return err
	}
	_, sp = rec.start(ctx, "wire.stream_drain")
	chunks, err := drain(ctx, cli, c)
	sp.end(chunks)
	if err != nil {
		return err
	}

	logical, ok := d.med.Sources()[k/d.spec.replicas].(*fabric.Logical)
	if !ok {
		return errors.New("wire-backed deployment without fabric.Logical sources")
	}
	// Both calls run without a query on the context, so the decorator
	// under the replicas stays out of the comparison.
	plain := untraced(ctx)
	return inOrder(qid, func() error {
		_, sp := rec.start(ctx, "fabric.select")
		_, err := logical.Select(plain, c)
		sp.end(0)
		return err
	}, func() error {
		_, sp := rec.start(ctx, "fabric.endpoint_select")
		_, err := logical.Endpoints()[0].Source().Select(plain, c)
		sp.end(0)
		return err
	})
}

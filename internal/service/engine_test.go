package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// dmvEngine assembles an engine over the Figure 1 scenario.
func dmvEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	return dmvEngineOver(t, cfg, nil)
}

// dmvEngineOver is dmvEngine with the scenario's first source in front of
// gate, when there is one.
func dmvEngineOver(t *testing.T, cfg Config, gate *gate) *Engine {
	t.Helper()
	sc := workload.DMV()
	m := core.New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(7))
	link := netsim.Link{Latency: 2 * time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: time.Millisecond}
	for i, src := range sc.Sources {
		if i == 0 && gate != nil {
			gate.Source = src
			src = gate
		}
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatalf("AddSourceLink: %v", err)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m.SetMetrics(cfg.Metrics)
	return NewEngine(m, cfg)
}

// TestEngineCacheLadder walks one query through the service's resolution
// ladder: fresh plan, then plan-cache hit, then answer-cache hit — and
// roster churn resetting all of it.
func TestEngineCacheLadder(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{TTL: time.Minute},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q1: %v", err)
	}
	if r1.PlanCached || r1.AnswerCached {
		t.Fatalf("q1 cached (plan=%v answer=%v), want fresh", r1.PlanCached, r1.AnswerCached)
	}
	want := r1.Answer.Items
	if want.Len() == 0 {
		t.Fatal("q1 answered nothing")
	}

	// The identical query is an answer-cache hit: nothing executes.
	r2, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q2: %v", err)
	}
	if !r2.AnswerCached {
		t.Fatal("q2 not served from the answer cache")
	}
	if !r2.Answer.Items.Equal(want) {
		t.Fatalf("q2 = %v, want %v", r2.Answer.Items.Slice(), want.Slice())
	}

	// Bump the epoch: the answer entry goes stale, but so does the plan —
	// both were built at the old roster generation — so q3 is fully fresh,
	// and q4 rides q3's re-cached plan.
	eng.Mediator().BumpEpoch()
	r3, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q3: %v", err)
	}
	if r3.PlanCached || r3.AnswerCached {
		t.Fatalf("q3 cached (plan=%v answer=%v) across an epoch bump", r3.PlanCached, r3.AnswerCached)
	}
	if !r3.Answer.Items.Equal(want) {
		t.Fatalf("q3 = %v, want %v", r3.Answer.Items.Slice(), want.Slice())
	}

	// q3 refilled the answer cache at the new epoch, so q4 is a hit again.
	// (The plan-cache leg of the ladder is pinned separately below with the
	// answer cache disabled — with it on, a repeat never reaches the plan.)
	if hits := reg.Counter(obs.MPlanCacheHits).Value(); hits != 0 {
		t.Fatalf("plan-cache hits = %d before any reuse, want 0", hits)
	}
	r4, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q4: %v", err)
	}
	if !r4.AnswerCached {
		t.Fatal("q4 not served from the answer cache")
	}
}

// TestEnginePlanCacheReuse pins the plan-cache path with the answer cache
// disabled: repeated queries reuse the optimized plan (skipping statistics
// gathering) and still answer correctly, in both execution modes.
func TestEnginePlanCacheReuse(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{MaxEntries: -1},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q1: %v", err)
	}
	if r1.PlanCached {
		t.Fatal("q1 claims a plan-cache hit")
	}
	for i, stream := range []bool{false, true, true} {
		r, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds, Stream: stream})
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if !r.PlanCached || r.AnswerCached {
			t.Fatalf("repeat %d: plan=%v answer=%v, want plan-cache hit", i, r.PlanCached, r.AnswerCached)
		}
		if !r.Answer.Items.Equal(r1.Answer.Items) {
			t.Fatalf("repeat %d: %v, want %v", i, r.Answer.Items.Slice(), r1.Answer.Items.Slice())
		}
	}
	if hits := reg.Counter(obs.MPlanCacheHits).Value(); hits != 3 {
		t.Fatalf("plan-cache hits = %d, want 3", hits)
	}
	// Roster churn: removing a source moves the epoch; the cached plan is
	// invalidated, never served, and the re-planned query answers over the
	// survivors.
	name := eng.Mediator().SourceNames()[0]
	if !eng.Mediator().RemoveSource(name) {
		t.Fatalf("RemoveSource(%s) = false", name)
	}
	r5, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("post-churn query: %v", err)
	}
	if r5.PlanCached {
		t.Fatal("stale plan served after roster churn")
	}
	if ev := reg.Counter(obs.MPlanCacheEvictions, "reason", "stale").Value(); ev == 0 {
		t.Fatal("no stale plan eviction charged after roster churn")
	}
}

// TestEngineRecordsQuery: a records query is planned, cached and repeated
// like any other, so the repeat is a plan-cache hit, but it neither reads nor
// fills the answer cache, which holds items only: both replies carry the
// records the second phase fetches for the answer.
func TestEngineRecordsQuery(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{TTL: time.Minute},
		Options: core.Options{Records: true},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		r, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		if r.AnswerCached || r.PlanCached != (i > 0) {
			t.Fatalf("query %d: plan=%v answer=%v, want a plan-cache hit on the repeat only", i+1, r.PlanCached, r.AnswerCached)
		}
		want, err := eng.Mediator().Fetch(ctx, r.Answer.Items)
		if err != nil {
			t.Fatal(err)
		}
		if r.Answer.Records == nil || r.Answer.Records.Len() != 5 || r.Answer.Records.Len() != want.Len() {
			t.Fatalf("query %d: records %v, the second phase fetches %d", i+1, r.Answer.Records, want.Len())
		}
	}
	hits, misses := reg.Counter(obs.MAnswerCacheHits).Value(), reg.Counter(obs.MAnswerCacheMisses).Value()
	if st := eng.AnswerCache().Stats(); st.Entries != 0 || hits+misses != 0 {
		t.Fatalf("answer cache %+v, %d hits, %d misses: a records query touched it", st, hits, misses)
	}
}

// TestEngineAdaptiveAlgorithm: the adaptive row answers through the engine
// like any row, and leaves nothing in the plan cache, because running its
// plan again would decide its rounds again.
func TestEngineAdaptiveAlgorithm(t *testing.T) {
	eng := dmvEngine(t, Config{
		Answers: AnswerCacheConfig{MaxEntries: -1},
		Options: core.Options{Algorithm: core.AlgoAdaptive},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := eng.Query(context.Background(), Request{Tenant: "a", Conds: conds})
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		if want := set.New("J55", "T21"); !r.Answer.Items.Equal(want) || r.PlanCached {
			t.Fatalf("query %d: %v (plan cached %v), want %v fresh", i+1, r.Answer.Items, r.PlanCached, want)
		}
	}
}

// TestConjunctionIsNotTwoConditions: the one-condition query
// V = 'dui' AND V = 'sp' (no tuple has both) and the two-condition query
// V = 'dui', V = 'sp' (J55 and T21 each witness both, at different sources)
// are different fusion queries. Asked after the other, it is neither served
// the other's answer from the answer cache nor run on the other's plan from
// the plan cache. Keys that joined the texts with AND named both alike.
func TestConjunctionIsNotTwoConditions(t *testing.T) {
	two := []string{`V = 'dui'`, `V = 'sp'`}
	one := []string{`V = 'dui' AND V = 'sp'`}
	for _, answers := range []AnswerCacheConfig{{TTL: time.Minute}, {MaxEntries: -1}} {
		for _, order := range [][][]string{{two, one}, {one, two}} {
			eng := dmvEngine(t, Config{Answers: answers})
			for _, texts := range order {
				conds, err := ParseConds(texts)
				if err != nil {
					t.Fatal(err)
				}
				r, err := eng.Query(context.Background(), Request{Tenant: "a", Conds: conds})
				if err != nil {
					t.Fatal(err)
				}
				want := set.New("J55", "T21")
				if len(texts) == 1 {
					want = set.New()
				}
				if !r.Answer.Items.Equal(want) || r.AnswerCached || r.PlanCached {
					t.Errorf("answer cache %+v: %q after %q answered %v (answer cached %v, plan cached %v), want %v afresh",
						answers, texts, order[0], r.Answer.Items.Slice(), r.AnswerCached, r.PlanCached, want.Slice())
				}
			}
		}
	}
}

// gate is a source that, once armed, holds the next operation it is asked
// for until the gate opens or the operation's context ends, and then fails
// the operation if told to.
type gate struct {
	source.Source
	armed atomic.Bool
	held  chan struct{} // closed when an operation is held
	open  chan struct{}
	fail  bool
}

var errGate = errors.New("gate: failed as told")

// arm makes the next operation wait for Open; fail fails it then.
func (g *gate) arm(fail bool) {
	g.held, g.open, g.fail = make(chan struct{}), make(chan struct{}), fail
	g.armed.Store(true)
}

func (g *gate) hold(ctx context.Context) error {
	if !g.armed.CompareAndSwap(true, false) {
		return nil
	}
	close(g.held)
	select {
	case <-g.open:
	case <-ctx.Done():
		return fmt.Errorf("gate: %w", ctx.Err())
	}
	if g.fail {
		return errGate
	}
	return nil
}

func (g *gate) Load(ctx context.Context) (*relation.Relation, error) {
	if err := g.hold(ctx); err != nil {
		return nil, err
	}
	return g.Source.Load(ctx)
}

func (g *gate) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	if err := g.hold(ctx); err != nil {
		return set.Set{}, err
	}
	return g.Source.Select(ctx, c)
}

func (g *gate) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	if err := g.hold(ctx); err != nil {
		return set.Set{}, err
	}
	return g.Source.Semijoin(ctx, c, y)
}

func (g *gate) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	if err := g.hold(ctx); err != nil {
		return false, err
	}
	return g.Source.SelectBinding(ctx, c, item)
}

// waitFor polls until n() reaches want, and reports it when it does not
// within ten seconds.
func waitFor(t *testing.T, what string, n func() int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); n() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s reached %d in ten seconds, want %d", what, n(), want)
			return
		}
	}
}

// executions is how many queries the mediator has run, whatever became of
// them.
func executions(reg *obs.Registry) int64 {
	var n int64
	for _, status := range reg.LabelValues(obs.MQueries, "status") {
		n += reg.Counter(obs.MQueries, "status", status).Value()
	}
	return n
}

// flightRig is an engine over the Figure 1 scenario with a gate in front of
// its first source, four execution slots, and a warm answer to V = 'dui',
// V = 'sp' that the roster epoch has since moved past.
type flightRig struct {
	eng   *Engine
	reg   *obs.Registry
	gate  *gate
	conds []cond.Cond
	// exchanges is what the warm query cost after an epoch bump of its own.
	exchanges int
}

func newFlightRig(t *testing.T) *flightRig {
	t.Helper()
	r := &flightRig{reg: obs.NewRegistry(), gate: &gate{}}
	r.eng = dmvEngineOver(t, Config{
		Metrics:   r.reg,
		Admission: AdmissionConfig{MaxInflight: 4, MaxQueue: 32},
		Answers:   AnswerCacheConfig{TTL: time.Minute},
	}, r.gate)
	var err error
	if r.conds, err = ParseConds([]string{`V = 'dui'`, `V = 'sp'`}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.query(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.eng.Mediator().BumpEpoch()
	before := r.eng.Mediator().Network().Stats().Messages
	if _, err := r.query(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.exchanges = r.eng.Mediator().Network().Stats().Messages - before
	r.eng.Mediator().BumpEpoch()
	return r
}

func (r *flightRig) query(ctx context.Context) (*Result, error) {
	res, err := r.eng.Query(ctx, Request{Tenant: "a", Conds: r.conds})
	if err == nil && !res.Answer.Items.Equal(set.New("J55", "T21")) {
		err = fmt.Errorf("answered %v, want [J55 T21]", res.Answer.Items.Slice())
	}
	return res, err
}

func (r *flightRig) counter(name string) func() int64 {
	return func() int64 { return r.reg.Counter(name).Value() }
}

// TestIdenticalQueriesInFlightExecuteOnce: sixteen identical queries that
// miss the answer cache together, after an epoch bump, make one execution
// and one query's exchanges, and all answer alike. The fifteen that wait
// hold no execution slot: four slots would not let them all miss otherwise.
func TestIdenticalQueriesInFlightExecuteOnce(t *testing.T) {
	r := newFlightRig(t)
	ran, misses0 := executions(r.reg), r.counter(obs.MAnswerCacheMisses)()
	admitted0 := r.reg.Counter(obs.MAdmitted, "tenant", "a").Value()
	before := r.eng.Mediator().Network().Stats().Messages
	r.gate.arm(false)

	const callers = 16
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.query(context.Background())
			errs <- err
		}()
	}
	waitFor(t, "answer-cache misses", r.counter(obs.MAnswerCacheMisses), misses0+callers)
	close(r.gate.open)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := executions(r.reg) - ran; n != 1 {
		t.Errorf("%d identical queries in flight made %d executions, want 1", callers, n)
	}
	if n := r.eng.Mediator().Network().Stats().Messages - before; n != r.exchanges {
		t.Errorf("%d identical queries in flight made %d exchanges, one query %d", callers, n, r.exchanges)
	}
	if n := r.counter(obs.MAnswerCoalesced)(); n != callers-1 {
		t.Errorf("fq_answer_coalesced_total = %d, want %d", n, callers-1)
	}
	if n := r.reg.Counter(obs.MAdmitted, "tenant", "a").Value() - admitted0; n != callers {
		t.Errorf("%d callers were admitted %d times, want once each", callers, n)
	}
}

// TestCancelledLeaderIsTakenOver: when the query executing for the others
// is cancelled mid-run, one of those waiting executes in its place and the
// rest are served its answer, at the cost of one execution more.
func TestCancelledLeaderIsTakenOver(t *testing.T) {
	r := newFlightRig(t)
	ran, misses0 := executions(r.reg), r.counter(obs.MAnswerCacheMisses)()
	r.gate.arm(false)
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := r.query(ctx)
		leader <- err
	}()
	<-r.gate.held

	const followers = 15
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.query(context.Background())
			errs <- err
		}()
	}
	waitFor(t, "answer-cache misses", r.counter(obs.MAnswerCacheMisses), misses0+1+followers)
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("the cancelled leader returned %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := executions(r.reg) - ran; n != 2 {
		t.Errorf("a cancelled leader and %d followers made %d executions, want 2", followers, n)
	}
	if n := r.counter(obs.MAnswerCoalesced)(); n != followers-1 {
		t.Errorf("fq_answer_coalesced_total = %d, want %d", n, followers-1)
	}
}

// TestFailedAnswerIsNotShared: a query that fails is not the answer of the
// identical queries waiting on it; one of them executes in its place, and
// they answer.
func TestFailedAnswerIsNotShared(t *testing.T) {
	r := newFlightRig(t)
	ran, misses0 := executions(r.reg), r.counter(obs.MAnswerCacheMisses)()
	r.gate.arm(true)
	leader := make(chan error, 1)
	go func() {
		_, err := r.query(context.Background())
		leader <- err
	}()
	<-r.gate.held

	const followers = 3
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.query(context.Background())
			errs <- err
		}()
	}
	waitFor(t, "answer-cache misses", r.counter(obs.MAnswerCacheMisses), misses0+1+followers)
	close(r.gate.open)
	if err := <-leader; !errors.Is(err, errGate) {
		t.Errorf("the failing leader returned %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("a follower of a failed query: %v", err)
		}
	}
	if n := executions(r.reg) - ran; n != 2 {
		t.Errorf("a failed leader and %d followers made %d executions, want 2", followers, n)
	}
	if n := r.counter(obs.MAnswerCoalesced)(); n != followers-1 {
		t.Errorf("fq_answer_coalesced_total = %d, want %d", n, followers-1)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/racetest"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// countingSource is a source.Layer that counts the operations passing
// through it, by op, and may interfere with them first.
type countingSource struct {
	source.Layer
	mu    sync.Mutex
	calls map[source.Op]int
	// before, when set, runs ahead of the n-th call (from 1) of an op; an
	// error from it is the call's.
	before func(ctx context.Context, op source.Op, n int) error
}

func counting(src source.Source) *countingSource {
	c := &countingSource{calls: map[source.Op]int{}}
	c.Layer = source.Over(src, func(ctx context.Context, call source.Call) (source.Reply, error) {
		c.mu.Lock()
		c.calls[call.Op]++
		n, before := c.calls[call.Op], c.before
		c.mu.Unlock()
		if before != nil {
			if err := before(ctx, call.Op, n); err != nil {
				return source.Reply{}, err
			}
		}
		return source.Do(ctx, src, call)
	})
	return c
}

func (c *countingSource) interfere(before func(ctx context.Context, op source.Op, n int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.before = before
}

func (c *countingSource) count(op source.Op) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[op]
}

// statsCallsOf is how many stats exchanges each counter has seen.
func statsCallsOf(counters []*countingSource) []int {
	out := make([]int, len(counters))
	for j, c := range counters {
		out[j] = c.count(source.OpStats)
	}
	return out
}

func (c *countingSource) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.calls {
		n += k
	}
	return n
}

// benchLink is the link service.DeployConfig gives source j.
func benchLink(j int) netsim.Link {
	const base = 2 * time.Millisecond
	return netsim.Link{Latency: base + base*time.Duration(j)/2, BytesPerSec: 1 << 20, RequestOverhead: base / 2, MaxConns: 4}
}

// countedMediator registers the scenario's sources, each under a counting
// layer below the mediator's instrumentation, over the benchmark's links.
func countedMediator(t *testing.T, sc *workload.Scenario) (*Mediator, []*countingSource) {
	t.Helper()
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	counters := make([]*countingSource, len(sc.Sources))
	for j, src := range sc.Sources {
		counters[j] = counting(src)
		if err := m.AddSourceLink(counters[j], benchLink(j)); err != nil {
			t.Fatal(err)
		}
	}
	return m, counters
}

func synth(t *testing.T, cfg workload.SynthConfig) *workload.Scenario {
	t.Helper()
	sc, err := workload.Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// distinctConds is the k-th of a family of pairwise different two-condition
// queries over attributes A1 and A2.
func distinctConds(k int) []cond.Cond {
	return []cond.Cond{cond.MustParse(fmt.Sprintf("A1 < %d", 150+37*k)), cond.MustParse(fmt.Sprintf("A2 < %d", 900-41*k))}
}

// catalogNames lists the sources the current roster's catalog holds an entry
// for, and the roster's epoch.
func catalogNames(m *Mediator) (map[string]bool, uint64) {
	r := m.cur.Load()
	r.learned.mu.Lock()
	defer r.learned.mu.Unlock()
	names := map[string]bool{}
	for name := range r.learned.entries {
		names[name] = true
	}
	return names, r.epoch
}

// TestCatalogSingleFlightAndEpochs: sixteen concurrent distinct cold queries
// on a fresh mediator cost one stats exchange a source between them, and the
// seventeenth none; moving the epoch costs one more each, and the catalog
// then holds the new roster's entries alone.
func TestCatalogSingleFlightAndEpochs(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 5, NumSources: 4, TuplesPerSource: 400, Universe: 500, Selectivity: []float64{0.3, 0.6}})
	m, counters := countedMediator(t, sc)
	statsCalls := func() []int { return statsCallsOf(counters) }

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = m.QueryCondsContext(context.Background(), distinctConds(k), Options{})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Fatalf("16 concurrent cold queries made %v stats exchanges by source, want one each", got)
	}
	if _, err := m.QueryCondsContext(context.Background(), distinctConds(16), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Fatalf("the 17th query made stats exchanges: %v", got)
	}

	epoch := m.BumpEpoch()
	for k := 17; k < 20; k++ {
		if _, err := m.QueryCondsContext(context.Background(), distinctConds(k), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{2, 2, 2, 2}) {
		t.Fatalf("after BumpEpoch: %v stats exchanges by source, want exactly one rebuild each", got)
	}
	if names, at := catalogNames(m); at != epoch || len(names) != 4 {
		t.Fatalf("catalog holds %v at epoch %d, want the four sources at %d", names, at, epoch)
	}

	// A removal moves the epoch too, and the removed source's entry goes
	// with the old epoch's.
	if !m.RemoveSource("R2") {
		t.Fatal("RemoveSource(R2) = false")
	}
	if _, err := m.QueryCondsContext(context.Background(), distinctConds(20), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{3, 2, 3, 3}) {
		t.Fatalf("after RemoveSource: %v stats exchanges by source", got)
	}
	if names, at := catalogNames(m); at != m.Epoch() || len(names) != 3 || names["R2"] {
		t.Fatalf("catalog holds %v at epoch %d, want R1, R3, R4 at %d", names, at, m.Epoch())
	}
}

// TestPlanningWithWarmCatalogIssuesNoExchange is the tentpole's contract:
// once the catalog is warm, Problem and Plan over conditions never seen
// before reach no source.
func TestPlanningWithWarmCatalogIssuesNoExchange(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 6, NumSources: 3, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.3, 0.6}})
	m, counters := countedMediator(t, sc)
	if _, err := m.Problem(t.Context(), distinctConds(0), Options{}); err != nil {
		t.Fatal(err)
	}
	warm := make([]int, len(counters))
	for j, c := range counters {
		if warm[j] = c.total(); warm[j] != 1 || c.count(source.OpStats) != 1 {
			t.Fatalf("warming %s took %d exchanges (%d stats), want the one stats exchange", c.Name(), warm[j], c.count(source.OpStats))
		}
	}
	for k := 1; k <= 8; k++ {
		if _, err := m.Problem(t.Context(), distinctConds(k), Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Plan(t.Context(), distinctConds(k+8), Options{Algorithm: AlgoSJA}); err != nil {
			t.Fatal(err)
		}
	}
	for j, c := range counters {
		if got := c.total(); got != warm[j] {
			t.Errorf("%s: %d exchanges while planning with a warm catalog, want 0", c.Name(), got-warm[j])
		}
	}
}

// statsBarrier makes every counted source hold its stats answer until all of
// them have been asked: a catalog that awaits one source's summary before it
// asks the next source never gets one.
func statsBarrier(counters []*countingSource) {
	var (
		mu    sync.Mutex
		asked int
		all   = make(chan struct{})
	)
	for _, c := range counters {
		c.interfere(func(ctx context.Context, op source.Op, _ int) error {
			if op != source.OpStats {
				return nil
			}
			mu.Lock()
			if asked++; asked == len(counters) {
				close(all)
			}
			mu.Unlock()
			select {
			case <-all:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("stats held until every source is asked: %w", ctx.Err())
			}
		})
	}
}

// TestCatalogFillOverlaps: a cold catalog asks all its sources at once. Each
// source answers stats only when every source has been asked, so a fill that
// takes them in turn waits for ever (here: to the guard); the plan that comes
// out is the plan over summaries taken in turn. When one source fails for
// good, the plan fails with that source's error, the first in roster order of
// those that failed, and the summaries of the sources that answered stay.
func TestCatalogFillOverlaps(t *testing.T) {
	cfg := workload.SynthConfig{Seed: 11, NumSources: 4, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.3, 0.6}}
	m, counters := countedMediator(t, synth(t, cfg))
	statsBarrier(counters)
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Second)
	defer cancel()
	got, err := m.Plan(ctx, distinctConds(0), Options{})
	if err != nil {
		t.Fatalf("planning over sources that answer stats only once all are asked: %v", err)
	}
	for _, c := range counters {
		if n := c.count(source.OpStats); n != 1 {
			t.Errorf("%s saw %d stats calls, want 1", c.Name(), n)
		}
	}

	// The reference: the same sources, summarized one after another.
	sc := synth(t, cfg)
	sts := make([]stats.SourceStats, len(sc.Sources))
	profiles := m.cur.Load().profiles
	for j, src := range sc.Sources {
		sum, err := source.Summarize(t.Context(), src)
		if err != nil {
			t.Fatal(err)
		}
		sts[j] = stats.StatsFromSummary(src.Name(), sum, distinctConds(0))
	}
	table, err := stats.Build(distinctConds(0), sts, profiles)
	if err != nil {
		t.Fatal(err)
	}
	want, err := optimizer.SJAPlus(&optimizer.Problem{Conds: distinctConds(0), Sources: sc.SourceNames(), Table: table})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Plan.String() != want.Plan.String() {
		t.Fatalf("the overlapped catalog plans\n%s(cost %v), summaries taken in turn plan\n%s(cost %v)", got.Plan, got.Cost, want.Plan, want.Cost)
	}

	// R2 and R4 refuse; R1 and R3 answer.
	m, counters = countedMediator(t, synth(t, cfg))
	for _, j := range []int{3, 1} {
		name := counters[j].Name()
		counters[j].interfere(func(_ context.Context, op source.Op, _ int) error {
			if op == source.OpStats {
				return fmt.Errorf("source %s: stats refused", name)
			}
			return nil
		})
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Plan(ctx, distinctConds(0), Options{}); err == nil || !strings.Contains(err.Error(), "source R2: stats refused") {
			t.Fatalf("err = %v, want R2's refusal: the first source in roster order that failed", err)
		}
	}
	if names, _ := catalogNames(m); !reflect.DeepEqual(names, map[string]bool{"R1": true, "R3": true}) {
		t.Fatalf("the catalog holds %v, want the summaries of R1 and R3, which answered", names)
	}
	if a, c := counters[0].count(source.OpStats), counters[2].count(source.OpStats); a != 1 || c != 1 {
		t.Fatalf("R1 and R3 saw %d and %d stats calls over four failed plans, want the one each that was kept", a, c)
	}
}

// warmProblemAllocs is what one Mediator.Problem call over a warm catalog of
// three sources and two conditions allocates: the statistics and their
// cardinalities, an array each; the cost table's six; and the problem.
// Before catalog fills overlapped it was 39, and 27 before the statistics
// and the table were each laid out once. Reading the catalog must cost no
// more.
const warmProblemAllocs = 9

// TestWarmCatalogStartsNoGoroutine: a plan over a warm catalog finds its
// summaries and starts nothing. A goroutine costs allocations, so the
// allocation count of Problem is the witness.
func TestWarmCatalogStartsNoGoroutine(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 6, NumSources: 3, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.3, 0.6}})
	m, _ := countedMediator(t, sc)
	conds := distinctConds(0)
	if _, err := m.Problem(t.Context(), conds, Options{}); err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	got := testing.AllocsPerRun(200, func() {
		if _, err := m.Problem(ctx, conds, Options{}); err != nil {
			t.Error(err)
		}
	})
	limit := float64(warmProblemAllocs)
	if racetest.Enabled {
		// Under -race the count moves by one from run to run.
		limit++
	}
	if got > limit {
		t.Fatalf("Problem over a warm catalog: %v allocations, %d before catalog fills overlapped", got, warmProblemAllocs)
	}
}

// firstDone is a context that reports the first time anything asks for its
// Done channel: a follower in the catalog does exactly when it starts to
// wait for the build it found in progress.
type firstDone struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *firstDone) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// TestCatalogLeaderCancelledFollowerSurvives: the query building a source's
// summary is cancelled mid-build. The query waiting behind it, whose own
// context is live, builds for itself and plans; the failure is nowhere in
// the catalog.
func TestCatalogLeaderCancelledFollowerSurvives(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 7, NumSources: 2, TuplesPerSource: 200, Universe: 300, Selectivity: []float64{0.3, 0.6}})
	m, counters := countedMediator(t, sc)
	entered := make(chan struct{})
	// R1's first stats call hangs until its caller gives up, or to the
	// guard: a build whose context does not reach the source would wait
	// there for ever.
	counters[0].interfere(func(ctx context.Context, op source.Op, n int) error {
		if op == source.OpStats && n == 1 {
			close(entered)
			select {
			case <-ctx.Done():
				return fmt.Errorf("source R1: stats: %w", ctx.Err())
			case <-time.After(2 * time.Second):
				return errors.New("source R1: stats ran to the guard: the leader's cancellation never reached it")
			}
		}
		return nil
	})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := m.Problem(leaderCtx, distinctConds(0), Options{})
		leaderErr <- err
	}()
	<-entered

	followerCtx := &firstDone{Context: context.Background(), asked: make(chan struct{})}
	followerErr := make(chan error, 1)
	go func() {
		_, err := m.Problem(followerCtx, distinctConds(1), Options{})
		followerErr <- err
	}()
	<-followerCtx.asked // the follower is waiting on the leader's build
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower with a live context failed behind a cancelled leader: %v", err)
	}
	if got := counters[0].count(source.OpStats); got != 2 {
		t.Fatalf("R1 saw %d stats calls, want the leader's and the follower's own", got)
	}
	// R2 was asked beside R1, by the leader and, if the leader was cancelled
	// before R2 had answered, by the follower again. What the catalog holds
	// now is complete: the next plan asks nobody.
	r2 := counters[1].count(source.OpStats)
	if r2 < 1 {
		t.Fatal("R2 saw no stats call")
	}
	if _, err := m.Problem(t.Context(), distinctConds(2), Options{}); err != nil {
		t.Fatal(err)
	}
	if a, b := counters[0].count(source.OpStats), counters[1].count(source.OpStats); a != 2 || b != r2 {
		t.Fatalf("stats calls after the recovery = %d, %d, want 2, %d: a plan over the recovered catalog asked a source", a, b, r2)
	}
}

// TestCatalogRetriesTransientFailures: a stats exchange that fails
// transiently fails the plan without a retry budget and leaves nothing in
// the catalog; under Retries: 1 a build whose first attempt fails succeeds.
func TestCatalogRetriesTransientFailures(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 8, NumSources: 2, TuplesPerSource: 200, Universe: 300, Selectivity: []float64{0.3, 0.6}})
	m, counters := countedMediator(t, sc)
	// R2's stats calls 1 and 2 fail: the only attempt of the first build, and
	// the first attempt of the second.
	counters[1].interfere(func(_ context.Context, op source.Op, n int) error {
		if op == source.OpStats && n <= 2 {
			return fmt.Errorf("source R2: stats: %w", source.ErrTransient)
		}
		return nil
	})
	if _, err := m.QueryCondsContext(context.Background(), distinctConds(0), Options{}); !source.IsTransient(err) {
		t.Fatalf("without retries: err = %v, want the transient failure", err)
	}
	if names, _ := catalogNames(m); names["R2"] {
		t.Fatal("the failed build left an entry in the catalog")
	}
	ans, err := m.QueryCondsContext(context.Background(), distinctConds(0), Options{Retries: 1})
	if err != nil {
		t.Fatalf("Retries: 1: %v", err)
	}
	if ans.Items.IsEmpty() {
		t.Fatal("degenerate scenario: empty answer")
	}
	if got := counters[1].count(source.OpStats); got != 3 {
		t.Fatalf("R2 saw %d stats calls, want 3: the failed plan's, the failed attempt, the retry", got)
	}
}

// plainSource is a hand-rolled Source: it has the interface's methods and
// neither optional capability, as the benchmark's timing decorator is.
type plainSource struct{ source.Source }

// TestCatalogLoadsSourcesThatCannotSummarize: a source without the
// Summarizer capability is loaded once and summarized at the mediator, to
// the same summary and so the same plan.
func TestCatalogLoadsSourcesThatCannotSummarize(t *testing.T) {
	cfg := workload.SynthConfig{Seed: 9, NumSources: 3, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.2, 0.7}}
	capable, _ := countedMediator(t, synth(t, cfg))

	sc := synth(t, cfg)
	plain := New(sc.Schema)
	plain.SetNetwork(netsim.NewNetwork(1))
	counters := make([]*countingSource, len(sc.Sources))
	for j, src := range sc.Sources {
		counters[j] = counting(src)
		var bare source.Source = plainSource{counters[j]}
		if _, ok := bare.(source.Summarizer); ok {
			t.Fatal("plainSource must not be a Summarizer")
		}
		want, err := source.Summarize(t.Context(), src)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := source.Summarize(t.Context(), bare); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("summary through Load = %+v (%v), the source's own is %+v", got, err, want)
		}
		if err := plain.AddSourceLink(bare, benchLink(j)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		got, err := plain.Plan(t.Context(), distinctConds(k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := capable.Plan(t.Context(), distinctConds(k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.Plan.String() != want.Plan.String() {
			t.Fatalf("query %d: plan through Load\n%s(cost %v), through stats\n%s(cost %v)", k, got.Plan, got.Cost, want.Plan, want.Cost)
		}
	}
	for _, c := range counters {
		// One load by the direct Summarize above, one by the catalog.
		if c.count(source.OpLoad) != 2 || c.count(source.OpStats) != 0 {
			t.Fatalf("%s: %d loads and %d stats calls, want 2 and 0", c.Name(), c.count(source.OpLoad), c.count(source.OpStats))
		}
	}
}

// TestCatalogBuildAbandonedAtDeadlineLeaksNothing: a deadline expires while
// the catalog is being built over a replicated source whose replicas hang.
// The query returns the deadline error, the source that hung has no entry,
// and every goroutine the build started is gone.
func TestCatalogBuildAbandonedAtDeadlineLeaksNothing(t *testing.T) {
	sc := workload.DMV()
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	link := netsim.Link{Latency: time.Millisecond}
	hang := func(name string) source.Source {
		w := source.NewWrapper(name, source.NewRowBackend(sc.Relations[0]), source.Capabilities{NativeSemijoin: true})
		return source.NewFlaky(w, 0, 1).SetStallFor("stats", time.Minute)
	}
	if _, err := m.AddReplicatedSource("R1", []ReplicaSpec{{Source: hang("R1-a"), Link: link}, {Source: hang("R1-b"), Link: link}},
		fabric.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, src := range sc.Sources[1:] {
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatal(err)
		}
	}
	m.Recorder() // the default recorder is created on first use; not a leak
	baseline := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(t.Context(), 30*time.Millisecond)
		_, err := m.QueryCondsContext(ctx, paperConds, Options{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
	}
	// R2 and R3 were asked beside R1 and answered: their summaries are valid
	// for the epoch and stay. The build that hung left nothing.
	if names, _ := catalogNames(m); names["R1"] {
		t.Fatalf("the abandoned build of R1 left an entry: the catalog holds %v", names)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the abandoned builds:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCatalogPlansCostWhatExactStatisticsPlansCost is the planning half of
// the accuracy contract, on the benchmark's cold data and query shapes (2 to
// 4 conditions "Ai < t" on distinct attributes, thresholds over [100, 900)):
// the SJA+ plan chosen from catalog statistics, costed under exact
// statistics, is within 2% of the plan chosen from exact statistics.
func TestCatalogPlansCostWhatExactStatisticsPlansCost(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 1, NumSources: 6, TuplesPerSource: 2000, Universe: 4000, Selectivity: []float64{0.2, 0.33, 0.47, 0.6}})
	m, _ := countedMediator(t, sc)
	r := m.cur.Load()
	var sumCatalog, sumExact float64
	const queries = 60
	for k := 0; k < queries; k++ {
		conds := make([]cond.Cond, 2+k%3)
		for i := range conds {
			conds[i] = cond.MustParse(fmt.Sprintf("A%d < %d", 1+(k+i)%4, 100+(k*131+i*277)%800))
		}
		got, err := m.Plan(t.Context(), conds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := stats.BuildFromSources(t.Context(), conds, r.sources, r.profiles)
		if err != nil {
			t.Fatal(err)
		}
		want, err := optimizer.SJAPlus(&optimizer.Problem{Conds: conds, Sources: m.SourceNames(), Table: exact})
		if err != nil {
			t.Fatal(err)
		}
		estCatalog, err := plan.EstimateCost(got.Plan, exact)
		if err != nil {
			t.Fatal(err)
		}
		estExact, err := plan.EstimateCost(want.Plan, exact)
		if err != nil {
			t.Fatal(err)
		}
		costCatalog, costExact := estCatalog.Cost, estExact.Cost
		if costCatalog > 1.02*costExact {
			t.Errorf("%v: the catalog's plan costs %.5f under exact statistics, the exact-statistics plan %.5f (+%.1f%%)",
				conds, costCatalog, costExact, 100*(costCatalog/costExact-1))
		}
		sumCatalog += costCatalog
		sumExact += costExact
	}
	t.Logf("%d queries: catalog plans cost %.4f under exact statistics, exact-statistics plans %.4f (%+.2f%%)",
		queries, sumCatalog, sumExact, 100*(sumCatalog/sumExact-1))
}

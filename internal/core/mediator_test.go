package core

import (
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// dmvMediator assembles the Figure 1 scenario behind the public API.
func dmvMediator(t *testing.T, withNet bool) *Mediator {
	t.Helper()
	return dmvMediatorConns(t, withNet, 0)
}

// dmvMediatorConns is dmvMediator over links of conns connections each.
func dmvMediatorConns(t *testing.T, withNet bool, conns int) *Mediator {
	t.Helper()
	sc := workload.DMV()
	m := New(sc.Schema)
	if withNet {
		m.SetNetwork(netsim.NewNetwork(1))
	}
	link := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 50000, RequestOverhead: 2 * time.Millisecond, MaxConns: conns}
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatalf("AddSourceLink: %v", err)
		}
	}
	return m
}

const paperSQL = `SELECT u1.L FROM U u1, U u2
WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`

// TestDMVFigure1 is the headline reproduction: the Section 1 query over the
// Figure 1 relations answers {J55, T21}.
func TestDMVFigure1(t *testing.T) {
	m := dmvMediator(t, true)
	for _, algo := range Algorithms() {
		ans, err := m.Query(t.Context(), paperSQL, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
			t.Fatalf("%s: answer = %v, want %v", algo, ans.Items, want)
		}
		if ans.Exec.SourceQueries == 0 || ans.EstimatedCost <= 0 {
			t.Fatalf("%s: missing accounting: %+v", algo, ans.Exec)
		}
	}
}

// TestQueryStreaming runs the Figure 1 query through the streaming
// executor via the public API: same answer, first-answer latency and peak
// accounting populated.
func TestQueryStreaming(t *testing.T) {
	m := dmvMediator(t, true)
	for _, algo := range Algorithms() {
		ans, err := m.Query(t.Context(), paperSQL, Options{Algorithm: algo, Streaming: true})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
			t.Fatalf("%s: streaming answer = %v, want %v", algo, ans.Items, want)
		}
		if ans.Exec.FirstAnswer <= 0 {
			t.Fatalf("%s: FirstAnswer = %v, want > 0", algo, ans.Exec.FirstAnswer)
		}
		if ans.Exec.PeakBytes < ans.Items.Bytes() {
			t.Fatalf("%s: PeakBytes = %d below answer bytes %d", algo, ans.Exec.PeakBytes, ans.Items.Bytes())
		}
	}
}

func TestQueryCondsDirect(t *testing.T) {
	m := dmvMediator(t, false)
	ans, err := m.QueryCondsContext(context.Background(), []cond.Cond{
		cond.MustParse("V = 'dui'"),
		cond.MustParse("V = 'sp'"),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}
}

// TestQueryConditionPrecedence: in fusion SQL, AND binds tighter than OR,
// as in a condition, on Figure 1 data where the other reading, (dui OR sp)
// AND D > 1993, loses T80 (a 1993 dui).
func TestQueryConditionPrecedence(t *testing.T) {
	m := dmvMediator(t, false)
	ans, err := m.Query(t.Context(), `SELECT u1.L FROM U u1 WHERE u1.V = 'dui' OR u1.V = 'sp' AND u1.D > 1993`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(text string) set.Set {
		a, err := m.QueryCondsContext(t.Context(), []cond.Cond{cond.MustParse(text)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a.Items
	}
	want := read("V = 'dui' OR V = 'sp' AND D > 1993")
	if other := read("(V = 'dui' OR V = 'sp') AND D > 1993"); other.Equal(want) {
		t.Fatalf("both readings answer %v; the data cannot tell them apart", want)
	}
	if !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}
}

func TestTwoPhaseFetch(t *testing.T) {
	m := dmvMediator(t, false)
	ans, err := m.Query(t.Context(), paperSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Fetch(t.Context(), ans.Items)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 5 {
		t.Fatalf("phase two fetched %d tuples, want 5", full.Len())
	}
	// Every fetched tuple belongs to an answer item.
	for _, tup := range full.Rows() {
		if !ans.Items.Contains(full.Item(tup)) {
			t.Fatalf("fetched tuple for non-answer item %s", full.Item(tup))
		}
	}
}

// TestCombinedFetchOption: a records query gets its records under whichever
// scheduler it asked for (only a streaming query emits stream batches), the
// planner's schedule on the plan, and the records round in its counters.
func TestCombinedFetchOption(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		m := dmvMediator(t, true)
		reg := obs.NewRegistry()
		ctx := obs.With(context.Background(), &obs.Obs{Metrics: reg})
		ans, err := m.Query(ctx, paperSQL, Options{Records: true, Algorithm: AlgoSJA, Streaming: streaming})
		if err != nil {
			t.Fatal(err)
		}
		if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
			t.Fatalf("streaming=%v: answer = %v, want %v", streaming, ans.Items, want)
		}
		if ans.Records == nil || ans.Records.Len() != 5 {
			t.Fatalf("streaming=%v: Records = %v, want 5 tuples", streaming, ans.Records)
		}
		// Three sources: no final round can be known to cover the answer.
		if ans.Plan.Records != plan.FetchRecords {
			t.Fatalf("streaming=%v: records schedule %v, want fetch", streaming, ans.Plan.Records)
		}
		last := ans.Exec.Trace[len(ans.Exec.Trace)-1]
		if last.Index != len(ans.Plan.Steps) || last.Queries != 3 || stepWork(ans) != ans.Exec.TotalWork {
			t.Fatalf("streaming=%v: records round traced as %+v; steps' work %v, total %v", streaming, last, stepWork(ans), ans.Exec.TotalWork)
		}
		batches := int64(0)
		for _, f := range reg.Snapshot() {
			if f.Name == obs.MStreamBatches {
				for _, p := range f.Points {
					batches += p.Value
				}
			}
		}
		if (batches > 0) != streaming {
			t.Fatalf("streaming=%v: %d stream batches", streaming, batches)
		}
	}
	m := dmvMediator(t, true)
	ans, err := m.Query(t.Context(), paperSQL, Options{Records: true, Algorithm: AlgoSJA})
	if err != nil {
		t.Fatal(err)
	}
	// Classic two-phase must agree.
	m2 := dmvMediator(t, true)
	plain, err := m2.Query(t.Context(), paperSQL, Options{Algorithm: AlgoSJA})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Records != nil {
		t.Fatal("Records should be nil without Options.Records")
	}
	full, err := m2.Fetch(t.Context(), plain.Items)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != ans.Records.Len() {
		t.Fatalf("records query %d records != two-phase %d", ans.Records.Len(), full.Len())
	}
}

// stepWork is what the steps of an answer's trace took together.
func stepWork(ans *Answer) time.Duration {
	var work time.Duration
	for _, tr := range ans.Exec.Trace {
		work += tr.Elapsed
	}
	return work
}

// laneMakespan is what an overlapped round-scheduled run over
// single-connection links takes, worked out from its plan and trace: a batch
// (plan.Flow.BatchEnd) takes what its slowest source takes, that source's
// exchanges one after another.
func laneMakespan(ans *Answer) time.Duration {
	elapsed := make([]time.Duration, len(ans.Plan.Steps))
	for _, tr := range ans.Exec.Trace {
		elapsed[tr.Index] = tr.Elapsed
	}
	var total time.Duration
	steps, batchEnd := ans.Plan.Steps, ans.Plan.Flow().BatchEnd
	for k := 0; k < len(steps); {
		if !steps[k].IsSourceQuery() {
			k++
			continue
		}
		end := batchEnd[k]
		lanes := map[int]time.Duration{}
		var slowest time.Duration
		for ; k < end; k++ {
			lanes[steps[k].Source] += elapsed[k]
			slowest = max(slowest, lanes[steps[k].Source])
		}
		total += slowest
	}
	return total
}

// TestRoundsOverlapByDefault: with nothing asked for, a round's source
// queries are in flight together. Every link has one connection, so a source
// serves its exchanges one after another: the FILTER plan on DMV answers
// what the executor answers for the same plan over the same links, with the
// same queries, work and response time, and that response time is the
// slowest lane of each round, strictly less than the total work. No source
// ever sees more exchanges from us than its link has connections.
func TestRoundsOverlapByDefault(t *testing.T) {
	sc := workload.DMV()
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	// MaxConns zero: one connection a source.
	link := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 50000, RequestOverhead: 2 * time.Millisecond}
	// Whenever a source answers, it notes how high the scheduler's gauges
	// stand, for itself and for the others.
	var mu sync.Mutex
	peak := map[string]int64{}
	for _, src := range sc.Sources {
		watched := source.Over(src, func(ctx context.Context, call source.Call) (source.Reply, error) {
			mu.Lock()
			for _, gauge := range []string{obs.MSchedQueueDepth, obs.MSchedLaneOccupancy} {
				for _, name := range sc.SourceNames() {
					key := gauge + " of " + name
					peak[key] = max(peak[key], reg.Gauge(gauge, "source", name).Value())
				}
			}
			mu.Unlock()
			return source.Do(ctx, src, call)
		})
		if err := m.AddSourceLink(&watched, link); err != nil {
			t.Fatal(err)
		}
	}

	ans, err := m.Query(t.Context(), paperSQL, Options{Algorithm: AlgoFilter})
	if err != nil {
		t.Fatal(err)
	}
	one, err := (&exec.Executor{Sources: m.Sources(), Network: m.Network()}).Run(context.Background(), ans.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Items.Equal(one.Answer) {
		t.Fatalf("answer %v, the executor over the same links answers %v", ans.Items, one.Answer)
	}
	if ans.Exec.TotalWork != one.TotalWork || ans.Exec.SourceQueries != one.SourceQueries || ans.Exec.ResponseTime != one.ResponseTime {
		t.Fatalf("%d queries, %v of work, response time %v; the executor over the same links: %d, %v, %v",
			ans.Exec.SourceQueries, ans.Exec.TotalWork, ans.Exec.ResponseTime, one.SourceQueries, one.TotalWork, one.ResponseTime)
	}
	if ans.Exec.ResponseTime >= ans.Exec.TotalWork {
		t.Fatalf("response time %v not below total work %v: the rounds' exchanges did not overlap", ans.Exec.ResponseTime, ans.Exec.TotalWork)
	}
	if want := laneMakespan(ans); ans.Exec.ResponseTime != want {
		t.Fatalf("response time %v, the rounds' slowest lanes sum to %v", ans.Exec.ResponseTime, want)
	}
	for _, name := range sc.SourceNames() {
		if got := peak[obs.MSchedLaneOccupancy+" of "+name]; got != 1 {
			t.Errorf("%s: lane occupancy peaked at %d, want its link's one connection", name, got)
		}
		if got := peak[obs.MSchedQueueDepth+" of "+name]; got > 1 {
			t.Errorf("%s: %d exchanges queued for its one connection, a round has one for it", name, got)
		}
	}
}

func TestAddSourceErrors(t *testing.T) {
	m := dmvMediator(t, false)
	// Incompatible schema.
	other := relation.MustSchema("K", relation.Column{Name: "K", Kind: relation.KindString})
	bad := source.NewWrapper("X", source.NewRowBackend(relation.NewRelation(other)), source.Capabilities{})
	if err := m.AddSource(bad, stats.SourceProfile{}); err == nil {
		t.Fatal("incompatible schema should fail")
	}
	// Duplicate name.
	sc := workload.DMV()
	if err := m.AddSource(sc.Sources[0], stats.SourceProfile{}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	m := dmvMediator(t, false)
	if _, err := m.Query(t.Context(), "SELECT u1.V FROM U u1", Options{}); err == nil {
		t.Fatal("non-fusion query should fail")
	}
	if _, err := m.Query(t.Context(), "not sql at all (", Options{}); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := m.QueryCondsContext(context.Background(), nil, Options{}); err == nil {
		t.Fatal("no conditions should fail")
	}
	if _, err := m.QueryCondsContext(context.Background(), []cond.Cond{cond.MustParse("Zz = 1")}, Options{}); err == nil {
		t.Fatal("condition on unknown attribute should fail")
	}
	if _, err := m.QueryCondsContext(context.Background(), []cond.Cond{cond.MustParse("V = 'dui'")}, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	empty := New(workload.DMVSchema())
	if _, err := empty.QueryCondsContext(context.Background(), []cond.Cond{cond.MustParse("V = 'dui'")}, Options{}); err == nil {
		t.Fatal("no sources should fail")
	}
}

// TestExecCountsOnlyItsOwnExecution: no query resets the network, so it
// already carries traffic when an execution starts — the catalog's stats
// exchanges of the first query's planning, then the first query itself — and
// Answer.Exec reports the query's own execution all the same.
func TestExecCountsOnlyItsOwnExecution(t *testing.T) {
	m := dmvMediator(t, true)
	first, err := m.Query(t.Context(), paperSQL, Options{Algorithm: AlgoSJA})
	if err != nil {
		t.Fatal(err)
	}
	var stats int
	var statsTime, execTime time.Duration
	for _, ex := range m.Network().Log() {
		if ex.Kind == "stats" {
			stats++
			statsTime += ex.Elapsed
		} else {
			execTime += ex.Elapsed
		}
	}
	if stats != len(m.Sources()) {
		t.Fatalf("%d stats exchanges in the log, want one per source", stats)
	}
	if st := m.Network().Stats(); st.Messages != stats+first.Exec.SourceQueries || first.Exec.TotalWork != execTime {
		t.Fatalf("first query reports %d queries, %v of work; the network carries %d messages beside %d stats exchanges, %v of execution",
			first.Exec.SourceQueries, first.Exec.TotalWork, st.Messages, stats, execTime)
	}
	if want := laneMakespan(first); first.Exec.ResponseTime != want {
		t.Fatalf("response time %v, the rounds' slowest lanes sum to %v (total work %v)", first.Exec.ResponseTime, want, first.Exec.TotalWork)
	}
	second, err := m.Query(t.Context(), paperSQL, Options{Algorithm: AlgoSJA})
	if err != nil {
		t.Fatal(err)
	}
	if second.Exec.SourceQueries != first.Exec.SourceQueries || second.Exec.TotalWork != first.Exec.TotalWork || second.Exec.ResponseTime != first.Exec.ResponseTime {
		t.Fatalf("second query reports %d queries, %v work, %v response; the first reported %d, %v, %v",
			second.Exec.SourceQueries, second.Exec.TotalWork, second.Exec.ResponseTime,
			first.Exec.SourceQueries, first.Exec.TotalWork, first.Exec.ResponseTime)
	}
	if st := m.Network().Stats(); st.Messages != stats+2*first.Exec.SourceQueries || st.TotalTime != statsTime+2*execTime {
		t.Fatalf("network stats %+v after two queries: a query reset the network", st)
	}
}

func TestSJAPlusDefaultAlgorithm(t *testing.T) {
	m := dmvMediator(t, false)
	ans, err := m.Query(t.Context(), paperSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Plan.Class, "sja+") {
		t.Fatalf("default plan class = %q, want sja+", ans.Plan.Class)
	}
}

func TestAlgorithmsComplete(t *testing.T) {
	if len(Algorithms()) != 10 {
		t.Fatalf("Algorithms() = %d entries", len(Algorithms()))
	}
	for _, a := range Algorithms() {
		if _, err := a.row(); err != nil {
			t.Errorf("algorithm %q not wired", a)
		}
		if a.Adaptive() != (a == AlgoAdaptive) {
			t.Errorf("algorithm %q: Adaptive() = %v", a, a.Adaptive())
		}
	}
}

// TestEveryAlgorithmRowIsReachable: the optimizer's table and the public
// Algo* names are the same ten; each row resolves from its name to a valid
// plan, and the rows that optimize total work price their plan as the shared
// estimator does (rt-sja's cost is a response time).
func TestEveryAlgorithmRowIsReachable(t *testing.T) {
	named := map[Algorithm]bool{
		AlgoFilter: true, AlgoSJ: true, AlgoSJA: true, AlgoSJAPlus: true, AlgoGreedySJ: true,
		AlgoGreedySJA: true, AlgoGreedyAdaptive: true, AlgoGreedyPlus: true, AlgoResponseTime: true,
		AlgoAdaptive: true,
	}
	if len(optimizer.Algorithms) != len(named) {
		t.Fatalf("table has %d rows, %d public names", len(optimizer.Algorithms), len(named))
	}
	m := dmvMediator(t, true)
	pr, err := m.Problem(context.Background(), workload.DMV().Conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range optimizer.Algorithms {
		name := Algorithm(row.Name)
		if !named[name] {
			t.Errorf("row %q has no Algo constant", row.Name)
		}
		row, err := name.row()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := row.Plan(pr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", name, err)
		}
		if name == AlgoResponseTime {
			continue
		}
		est, err := plan.EstimateCost(res.Plan, pr.Table)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if math.Abs(est.Cost-res.Cost) > 1e-9*res.Cost {
			t.Errorf("%s: Result.Cost %v, estimator %v", name, res.Cost, est.Cost)
		}
	}
}

// TestReadmeListsEveryAlgorithm holds the README's "Algorithms" table to the
// optimizer's: the same names, in the same order.
func TestReadmeListsEveryAlgorithm(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Algorithms\n")
	if !ok {
		t.Fatal("README.md has no Algorithms section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(row, "`")
			listed = append(listed, name)
		}
	}
	var rows []string
	for _, row := range optimizer.Algorithms {
		rows = append(rows, row.Name)
	}
	if strings.Join(listed, " ") != strings.Join(rows, " ") {
		t.Fatalf("README lists %v, the table has %v", listed, rows)
	}
}

// TestAdaptiveOption: the adaptive row plans like any row (its estimate is
// greedy-adaptive-sja's) and runs its own rounds, round-scheduled even when
// the query asked to stream; the answer's plan is the rounds it ran.
func TestAdaptiveOption(t *testing.T) {
	m := dmvMediator(t, true)
	ans, err := m.Query(t.Context(), paperSQL, Options{Algorithm: AlgoAdaptive, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("adaptive answer = %v, want %v", ans.Items, want)
	}
	if len(ans.Exec.Trace) != len(ans.Plan.Steps) {
		t.Fatalf("trace has %d entries for %d executed steps", len(ans.Exec.Trace), len(ans.Plan.Steps))
	}
	if ans.Plan.Class != "adaptive" || ans.Plan.Adaptive != nil || ans.EstimatedCost <= 0 {
		t.Fatalf("plan class = %q, adaptive table %v, estimate %v", ans.Plan.Class, ans.Plan.Adaptive != nil, ans.EstimatedCost)
	}
	if err := ans.Plan.Validate(); err != nil {
		t.Fatalf("executed plan invalid: %v", err)
	}
}

package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// dmvSetup wires the DMV scenario to instrumented sources over a simulated
// network and builds the optimization problem.
func dmvSetup(t *testing.T, caps []source.Capabilities) (*optimizer.Problem, []source.Source, *netsim.Network) {
	t.Helper()
	sc := workload.DMV()
	network := netsim.NewNetwork(1)
	srcs := make([]source.Source, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	link := netsim.Link{Latency: 10 * time.Millisecond, BytesPerSec: 10000, RequestOverhead: 5 * time.Millisecond}
	for j, raw := range sc.Sources {
		w := raw.(*source.Wrapper)
		inner := w
		if caps != nil {
			inner = source.NewWrapper(w.Name(), source.NewRowBackend(sc.Relations[j]), caps[j])
		}
		network.SetLink(w.Name(), link)
		srcs[j] = source.Instrument(inner, network)
		profiles[j] = stats.ProfileFromLink(w.Name(), link, 3, stats.SupportOf(inner.Caps()))
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, srcs, profiles)
	if err != nil {
		t.Fatal(err)
	}
	network.Reset() // statistics gathering is free
	pr := &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}
	return pr, srcs, network
}

// linkConns gives the link of every named source k connections and returns
// the network: connection capacity is a property of the link.
func linkConns(network *netsim.Network, sources []string, k int) *netsim.Network {
	for _, name := range sources {
		link := network.LinkFor(name)
		link.MaxConns = k
		network.SetLink(name, link)
	}
	return network
}

var dmvAnswer = set.New("J55", "T21")

// TestDMVAllOptimizers runs the paper's Section 1 query end-to-end through
// every optimizer under every scheduler and checks they all produce the
// answer {J55, T21} with sane accounting.
func TestDMVAllOptimizers(t *testing.T) {
	algos := map[string]func(*optimizer.Problem) (optimizer.Result, error){
		"filter":     optimizer.Filter,
		"sj":         optimizer.SJ,
		"sja":        optimizer.SJA,
		"greedy-sj":  optimizer.GreedySJ,
		"greedy-sja": optimizer.GreedySJA,
		"sja+":       optimizer.SJAPlus,
		"greedy+":    optimizer.GreedySJAPlus,
	}
	for _, mode := range runModes {
		for name, algo := range algos {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				pr, srcs, network := dmvSetup(t, nil)
				res, err := algo(pr)
				if err != nil {
					t.Fatal(err)
				}
				ex := &Executor{Sources: srcs, Network: network, BatchSize: 8}
				mode.configure(ex)
				got, err := ex.Run(context.Background(), res.Plan)
				if err != nil {
					t.Fatalf("run: %v\nplan:\n%s", err, res.Plan)
				}
				if !got.Answer.Equal(dmvAnswer) {
					t.Fatalf("answer = %v, want %v\nplan:\n%s", got.Answer, dmvAnswer, res.Plan)
				}
				if got.SourceQueries == 0 {
					t.Fatal("no source queries recorded")
				}
				if got.TotalWork <= 0 || got.ResponseTime <= 0 || got.ResponseTime > got.TotalWork {
					t.Fatalf("timing = work %v, response %v", got.TotalWork, got.ResponseTime)
				}
				if work := stepWork(got); work != got.TotalWork {
					t.Fatalf("steps' elapsed times sum to %v, total work %v", work, got.TotalWork)
				}
				if got.FirstAnswer <= 0 {
					t.Fatalf("FirstAnswer = %v, want > 0", got.FirstAnswer)
				}
				if len(got.Trace) != len(res.Plan.Steps) {
					t.Fatalf("trace has %d entries for %d steps", len(got.Trace), len(res.Plan.Steps))
				}
			})
		}
	}
}

// TestDMVHeterogeneousCapabilities mixes native, emulated and
// selection-only sources; the SJA plan must still be executable and correct.
func TestDMVHeterogeneousCapabilities(t *testing.T) {
	caps := []source.Capabilities{
		{NativeSemijoin: true, PassedBindings: true},
		{PassedBindings: true},
		{},
	}
	pr, srcs, network := dmvSetup(t, caps)
	res, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Network: network}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, res.Plan)
	}
	if !got.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want %v", got.Answer, dmvAnswer)
	}
	// The selection-only source must never receive a semijoin step.
	for _, s := range res.Plan.Steps {
		if s.Kind == plan.KindSemijoin && s.Source == 2 {
			t.Fatalf("semijoin routed to selection-only source:\n%s", res.Plan)
		}
	}
}

// TestPlanClassesAgreeOnSynthetic is the in-package differential check: on
// a larger mixed-capability synthetic workload, every optimizer's plan under
// every scheduler must compute exactly the answer of the filter plan.
func TestPlanClassesAgreeOnSynthetic(t *testing.T) {
	pr, srcs := synthProblem(t, workload.SynthConfig{
		Seed: 42, NumSources: 4, TuplesPerSource: 300, Universe: 150,
		Selectivity: []float64{0.1, 0.5, 0.8},
		Backend:     workload.BackendMixed,
		Caps: []source.Capabilities{
			{NativeSemijoin: true, PassedBindings: true},
			{PassedBindings: true},
			{NativeSemijoin: true},
			{},
		},
	})
	fres, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Executor{Sources: srcs}).Run(context.Background(), fres.Plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range runModes {
		ex := &Executor{Sources: srcs, BatchSize: 16}
		mode.configure(ex)
		for name, algo := range map[string]func(*optimizer.Problem) (optimizer.Result, error){
			"filter": optimizer.Filter, "sj": optimizer.SJ, "sja": optimizer.SJA,
			"sja+": optimizer.SJAPlus, "greedy-sja": optimizer.GreedySJA,
		} {
			res, err := algo(pr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := ex.Run(context.Background(), res.Plan)
			if err != nil {
				t.Fatalf("%s/%s: %v\nplan:\n%s", mode.name, name, err, res.Plan)
			}
			if !got.Answer.Equal(want.Answer) {
				t.Fatalf("%s/%s: answer %v != filter answer %v", mode.name, name, got.Answer, want.Answer)
			}
		}
	}
}

// TestParallelModeReducesResponseTime checks the Section 6 future-work
// executor: even at one connection a source, a round asks its sources
// together, so each of the FILTER plan's two rounds of three DMV selections
// takes as long as its slowest selection. Total work, the additive cost of
// Section 2.4, is what the same plan costs over links of four connections.
func TestParallelModeReducesResponseTime(t *testing.T) {
	run := func(conns int) *Result {
		pr, srcs, network := dmvSetup(t, nil)
		res, err := optimizer.Filter(pr) // 6 independent queries in 2 rounds
		if err != nil {
			t.Fatal(err)
		}
		ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, conns)}
		got, err := ex.Run(context.Background(), res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	one, four := run(1), run(4)
	if !four.Answer.Equal(one.Answer) {
		t.Fatalf("answer over four connections %v != over one %v", four.Answer, one.Answer)
	}
	if four.TotalWork != one.TotalWork {
		t.Fatalf("total work changed: %v vs %v", four.TotalWork, one.TotalWork)
	}
	for _, got := range []*Result{one, four} {
		if got.ResponseTime >= got.TotalWork {
			t.Fatalf("response time %v not below total work %v", got.ResponseTime, got.TotalWork)
		}
	}
}

func TestRunRejectsMismatchedSources(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs[:2]}
	if _, err := ex.Run(context.Background(), res.Plan); err == nil {
		t.Fatal("source count mismatch should fail")
	}
	// Wrong order.
	ex = &Executor{Sources: []source.Source{srcs[1], srcs[0], srcs[2]}}
	if _, err := ex.Run(context.Background(), res.Plan); err == nil {
		t.Fatal("source name mismatch should fail")
	}
}

func TestRunRejectsInvalidPlan(t *testing.T) {
	_, srcs, _ := dmvSetup(t, nil)
	ex := &Executor{Sources: srcs}
	bad := &plan.Plan{Result: "X"}
	if _, err := ex.Run(context.Background(), bad); err == nil {
		t.Fatal("invalid plan should fail")
	}
}

func TestLocalSelectRequiresLoadedContents(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindLocalSelect, Out: "B", Cond: 0, Source: -1, In: []string{"A"}},
		},
		Result: "B",
	}
	ex := &Executor{Sources: srcs}
	if _, err := ex.Run(context.Background(), p); err == nil || !strings.Contains(err.Error(), "loaded") {
		t.Fatalf("err = %v, want loaded-contents error", err)
	}
}

func TestLoadAndLocalSelectExecution(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0},
			{Kind: plan.KindLocalSelect, Out: "X11", Cond: 0, Source: -1, In: []string{"F1"}},
		},
		Result: "X11",
	}
	ex := &Executor{Sources: srcs}
	got, err := ex.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T80"); !got.Answer.Equal(want) {
		t.Fatalf("local select = %v, want %v", got.Answer, want)
	}
	if got.SourceQueries != 1 {
		t.Fatalf("SourceQueries = %d, want 1 (only the load)", got.SourceQueries)
	}
}

func TestDiffExecution(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0}, // {J55, T80}
			{Kind: plan.KindSelect, Out: "B", Cond: 0, Source: 1}, // {T21}
			{Kind: plan.KindUnion, Out: "U", Cond: -1, Source: -1, In: []string{"A", "B"}},
			{Kind: plan.KindDiff, Out: "D", Cond: -1, Source: -1, In: []string{"U", "A"}},
		},
		Result: "D",
	}
	ex := &Executor{Sources: srcs}
	got, err := ex.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("T21"); !got.Answer.Equal(want) {
		t.Fatalf("diff = %v, want %v", got.Answer, want)
	}
}

func TestEmulatedSemijoinCountsBindingQueries(t *testing.T) {
	caps := []source.Capabilities{
		{PassedBindings: true},
		{PassedBindings: true},
		{PassedBindings: true},
	}
	pr, srcs, _ := dmvSetup(t, caps)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0}, // {J55, T80}
			{Kind: plan.KindSemijoin, Out: "B", Cond: 1, Source: 1, In: []string{"A"}},
		},
		Result: "B",
	}
	ex := &Executor{Sources: srcs}
	got, err := ex.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55"); !got.Answer.Equal(want) {
		t.Fatalf("emulated semijoin = %v, want %v", got.Answer, want)
	}
	// 1 selection + 2 binding queries.
	if got.SourceQueries != 3 {
		t.Fatalf("SourceQueries = %d, want 3", got.SourceQueries)
	}
}

func TestFetchAnswerTwoPhase(t *testing.T) {
	_, srcs, _ := dmvSetup(t, nil)
	rel, err := FetchAnswer(context.Background(), dmvAnswer, srcs)
	if err != nil {
		t.Fatal(err)
	}
	// J55 has 2 violations (R1 dui, R2 sp); T21 has 3 (R1 sp, R2 dui, R3 sp).
	if rel.Len() != 5 {
		t.Fatalf("fetched %d tuples, want 5:\n%s", rel.Len(), rel)
	}
	empty, err := FetchAnswer(context.Background(), set.New(), srcs)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty answer fetch = %v, %v", empty.Len(), err)
	}
	if _, err := FetchAnswer(context.Background(), dmvAnswer, nil); err == nil {
		t.Fatal("no sources should fail")
	}
}

// TestEmptySemijoinShortCircuit: a semijoin over an empty running set is
// answered at the mediator without contacting the source — the runtime
// counterpart of the cost model's "no benefit in querying for nothing".
// Between barriers the empty variable yields no batch to probe with; in the
// pipeline the empty selection closes its edge immediately, so the
// downstream semijoin node never probes either.
func TestEmptySemijoinShortCircuit(t *testing.T) {
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, nil)
			p := &plan.Plan{
				Conds:   pr.Conds,
				Sources: pr.Sources,
				Steps: []plan.Step{
					{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
					{Kind: plan.KindIntersect, Out: "E", Cond: -1, Source: -1, In: []string{"A", "A"}},
					{Kind: plan.KindDiff, Out: "Z", Cond: -1, Source: -1, In: []string{"A", "A"}}, // empty
					{Kind: plan.KindSemijoin, Out: "B", Cond: 1, Source: 1, In: []string{"Z"}},
					{Kind: plan.KindSemijoin, Out: "C", Cond: 1, Source: 2, In: []string{"B"}},
				},
				Result: "C",
			}
			ex := &Executor{Sources: srcs, Network: network}
			mode.configure(ex)
			got, err := ex.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Answer.IsEmpty() {
				t.Fatalf("answer = %v, want empty", got.Answer)
			}
			// Only the one selection reached a source; both semijoins were elided.
			if got.SourceQueries != 1 {
				t.Fatalf("SourceQueries = %d, want 1 (semijoins over empty sets elided)", got.SourceQueries)
			}
			if st := network.Stats(); st.Messages != 1 {
				t.Fatalf("network messages = %d, want 1", st.Messages)
			}
			// An empty run still reports when its (empty) answer was known.
			if got.FirstAnswer <= 0 {
				t.Fatalf("FirstAnswer = %v, want > 0 for an empty but successful run", got.FirstAnswer)
			}
		})
	}
}

func TestExecutionTrace(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Network: network}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) != len(res.Plan.Steps) {
		t.Fatalf("trace has %d entries for %d steps", len(got.Trace), len(res.Plan.Steps))
	}
	var queries int
	var elapsed time.Duration
	for i, tr := range got.Trace {
		if tr.Index != i {
			t.Fatalf("trace out of order at %d: %+v", i, tr)
		}
		if tr.Text == "" {
			t.Fatalf("trace entry %d has no text", i)
		}
		queries += tr.Queries
		elapsed += tr.Elapsed
	}
	if queries != got.SourceQueries {
		t.Fatalf("trace queries %d != result %d", queries, got.SourceQueries)
	}
	if elapsed != got.TotalWork {
		t.Fatalf("trace elapsed %v != total work %v", elapsed, got.TotalWork)
	}
	// The final step's output cardinality is the answer size.
	last := got.Trace[len(got.Trace)-1]
	if last.OutItems != got.Answer.Len() {
		t.Fatalf("final trace out items %d != answer %d", last.OutItems, got.Answer.Len())
	}
	rendered := RenderTrace(got.Trace)
	if !strings.Contains(rendered, "sq(c1, R1)") || !strings.Contains(rendered, "queries") {
		t.Fatalf("rendered trace missing content:\n%s", rendered)
	}
	if RenderTrace(nil) != "" {
		t.Fatal("empty trace should render empty")
	}
}

// TestBatchEndStopsAtDependency: a batch ends at the first source query
// that reads an output of the batch, and the one after it starts there.
func TestBatchEndStopsAtDependency(t *testing.T) {
	p := &plan.Plan{
		Conds:   workload.MustConds(2),
		Sources: []string{"R1", "R2", "R3"},
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "B", Cond: 0, Source: 1},
			{Kind: plan.KindSemijoin, Out: "C", Cond: 1, Source: 2, In: []string{"A"}},
		},
		Result: "C",
	}
	if end := p.Flow().BatchEnd; end[0] != 2 || end[2] != 3 {
		t.Fatalf("BatchEnd = %v, want 2 from step 0 (C depends on A) and 3 from step 2", end)
	}
}

// TestConcurrentRunsShareOneExecutor: an Executor is configuration and
// every run keeps its own state, so one Executor value serves pipelined,
// round-scheduled, adaptive and records runs at once. Under -race this fails on any
// per-run state left on the Executor.
func TestConcurrentRunsShareOneExecutor(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.SJAPlus(pr) // loads the tiny DMV sources
	if err != nil {
		t.Fatal(err)
	}
	for _, streaming := range []bool{true, false} {
		ex := &Executor{Sources: srcs, Network: network, Streaming: streaming, BatchSize: 2}
		check := func(what string, got *Result, err error) {
			if err != nil {
				t.Errorf("streaming=%v %s: %v", streaming, what, err)
			} else if !got.Answer.Equal(dmvAnswer) {
				t.Errorf("streaming=%v %s: answer = %v, want %v", streaming, what, got.Answer, dmvAnswer)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(3)
			go func() {
				defer wg.Done()
				got, err := ex.Run(context.Background(), res.Plan)
				check("Run", got, err)
			}()
			go func() {
				defer wg.Done()
				// Round-scheduled either way. A cost table counts its own
				// invocations, so each query brings its own.
				table := *pr.Table
				got, err := ex.Run(context.Background(), adaptivePlan(t, &optimizer.Problem{Conds: pr.Conds, Sources: pr.Sources, Table: &table}))
				check("adaptive", got, err)
			}()
			go func() {
				defer wg.Done()
				got, err := ex.Run(context.Background(), withRecords(res.Plan, plan.FinalRecords))
				check("records", got, err)
				if err == nil && got.Records.Len() != 5 {
					t.Errorf("streaming=%v records: %d records, want 5", streaming, got.Records.Len())
				}
			}()
		}
		wg.Wait()
	}
}

package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// synthProblem builds a fresh synthetic workload plus its optimization
// problem, for differential materialized-vs-streaming runs.
func synthProblem(t *testing.T, cfg workload.SynthConfig) (*optimizer.Problem, []source.Source) {
	t.Helper()
	sc, err := workload.Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := stats.UniformProfiles(sc.SourceNames(), stats.SourceProfile{
		PerQuery: 10, PerItemSent: 0.5, PerItemRecv: 0.5, PerByteLoad: 0.001,
	})
	for j, src := range sc.Sources {
		profiles[j].Support = stats.SupportOf(src.Caps())
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	return &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}, sc.Sources
}

// TestHonestPartial: under either scheduler a permanently failing source
// fails the run with an empty answer, while the traffic already paid for
// stays counted.
func TestHonestPartial(t *testing.T) {
	sc := workload.DMV()
	srcs := make([]source.Source, len(sc.Sources))
	for j, raw := range sc.Sources {
		if j == 1 {
			srcs[j] = source.NewFlaky(raw, 1.0, 7) // every operation fails
		} else {
			srcs[j] = raw
		}
	}
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "B", Cond: 1, Source: 1},
			{Kind: plan.KindUnion, Out: "U", Cond: -1, Source: -1, In: []string{"A", "B"}},
		},
		Result: "U",
	}
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			ex := &Executor{Sources: srcs}
			mode.configure(ex)
			got, err := ex.Run(context.Background(), p)
			if err == nil {
				t.Fatal("run against a dead source should fail")
			}
			if !strings.Contains(err.Error(), "sq(") {
				t.Fatalf("error %q does not name the failing step", err)
			}
			if !got.Answer.IsEmpty() {
				t.Fatalf("failed run leaked a partial answer: %v", got.Answer)
			}
			if got.FirstAnswer != 0 {
				t.Fatalf("failed run reported FirstAnswer = %v", got.FirstAnswer)
			}
			if got.SourceQueries == 0 {
				t.Fatal("failed run must still report the queries it issued")
			}
			// Step 1 failed; in the pipeline its failure may cancel step 0
			// mid-flight, and FailedStep is the smallest failed index.
			if got.FailedStep < 0 || got.FailedStep > 1 {
				t.Fatalf("FailedStep = %d, want 1 (or 0, cancelled by it)", got.FailedStep)
			}
		})
	}
}

// TestCancellation: a cancelled context fails the run promptly and
// honestly under either scheduler (empty answer, wrapped context error, no
// leaked goroutines — the latter enforced by -race and the test exiting at
// all).
func TestCancellation(t *testing.T) {
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, nil)
			res, err := optimizer.SJA(pr)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ex := &Executor{Sources: srcs, Network: network}
			mode.configure(ex)
			got, err := ex.Run(ctx, res.Plan)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if !got.Answer.IsEmpty() {
				t.Fatalf("cancelled run leaked an answer: %v", got.Answer)
			}
		})
	}
}

// TestStreamingReducesPeakBytes: on a workload whose intermediates dwarf
// the answer, the streaming executor's peak mediator memory must come in
// under the materialized executor's, while the answers stay identical.
func TestStreamingReducesPeakBytes(t *testing.T) {
	cfg := workload.SynthConfig{
		Seed: 3, NumSources: 3, TuplesPerSource: 2000, Universe: 1000,
		Selectivity: []float64{0.5, 0.5, 0.5},
	}
	pr, srcs := synthProblem(t, cfg)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	mat := &Executor{Sources: srcs}
	matRes, err := mat.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	str := &Executor{Sources: srcs, Streaming: true, BatchSize: 32}
	strRes, err := str.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strRes.Answer.Equal(matRes.Answer) {
		t.Fatalf("answers differ: streaming %d items, materialized %d", strRes.Answer.Len(), matRes.Answer.Len())
	}
	if matRes.PeakBytes == 0 || strRes.PeakBytes == 0 {
		t.Fatalf("peak bytes not accounted: materialized %d, streaming %d", matRes.PeakBytes, strRes.PeakBytes)
	}
	if strRes.PeakBytes >= matRes.PeakBytes {
		t.Fatalf("streaming peak %d not below materialized %d", strRes.PeakBytes, matRes.PeakBytes)
	}
}

// TestCacheParity: under either scheduler the select body both consults
// and fills the answer cache, so a second run over the same cache answers
// selections locally.
func TestCacheParity(t *testing.T) {
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, nil)
			res, err := optimizer.Filter(pr)
			if err != nil {
				t.Fatal(err)
			}
			ex := &Executor{Sources: srcs, Network: network, Cache: NewCache()}
			mode.configure(ex)
			first, err := ex.Run(context.Background(), res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if first.CacheMisses != first.SourceQueries || first.CacheHits != 0 {
				t.Fatalf("cold run: hits %d, misses %d, queries %d", first.CacheHits, first.CacheMisses, first.SourceQueries)
			}
			second, err := ex.Run(context.Background(), res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Answer.Equal(first.Answer) {
				t.Fatalf("cached rerun answer %v != first %v", second.Answer, first.Answer)
			}
			if second.CacheHits == 0 || second.SourceQueries != 0 {
				t.Fatalf("cached rerun: hits %d, queries %d; want all selections answered locally", second.CacheHits, second.SourceQueries)
			}
		})
	}
}

// TestStreamingHandlesReassignment: plans that reassign a variable (as the
// canonical filter plan does with X2 := X2 ∩ X1) are rewritten to
// single-assignment form, so each version gets its own producing node and
// later uses resolve to the version current at that point.
func TestStreamingHandlesReassignment(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 0}, // {J55, T80}
			{Kind: plan.KindSemijoin, Out: "X", Cond: 1, Source: 1, In: []string{"X"}},
		},
		Result: "X",
	}
	steps, resultVar := ssaSteps(p)
	if steps[0].Out == steps[1].Out {
		t.Fatalf("SSA rewrite kept duplicate producer %q", steps[0].Out)
	}
	if steps[1].In[0] != steps[0].Out {
		t.Fatalf("SSA rewrite broke the def-use chain: %q reads %q", steps[1].Out, steps[1].In[0])
	}
	if resultVar != steps[1].Out {
		t.Fatalf("result resolves to %q, want final version %q", resultVar, steps[1].Out)
	}
	ex := &Executor{Sources: srcs, Streaming: true}
	got, err := ex.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55"); !got.Answer.Equal(want) {
		t.Fatalf("answer = %v, want %v", got.Answer, want)
	}
}

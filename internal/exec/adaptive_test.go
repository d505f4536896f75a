package exec

import (
	"context"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// adaptivePlan is the adaptive row's plan for pr.
func adaptivePlan(t testing.TB, pr *optimizer.Problem) *plan.Plan {
	t.Helper()
	res, err := optimizer.Adaptive(pr)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func TestRunAdaptiveDMV(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	ex := &Executor{Sources: srcs, Network: network}
	res, err := ex.Run(context.Background(), adaptivePlan(t, pr))
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	executed := res.Plan
	if !res.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want %v\nexecuted:\n%s", res.Answer, dmvAnswer, executed)
	}
	if err := executed.Validate(); err != nil {
		t.Fatalf("executed plan invalid: %v\n%s", err, executed)
	}
	if res.SourceQueries == 0 || res.TotalWork <= 0 {
		t.Fatalf("accounting missing: %+v", res)
	}
}

// TestRunAdaptiveMatchesGroundTruthUnderCorrelation: the regime adaptivity
// exists for — estimates mislead, measured cardinalities do not.
func TestRunAdaptiveMatchesGroundTruthUnderCorrelation(t *testing.T) {
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 51, NumSources: 4, TuplesPerSource: 400, Universe: 250,
		Selectivity: []float64{0.1, 0.3, 0.5},
		Correlation: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles := stats.UniformProfiles(sc.SourceNames(), stats.SourceProfile{
		PerQuery: 5, PerItemSent: 0.01, PerItemRecv: 0.01, PerByteLoad: 0.001,
		Support: stats.SemijoinNative,
	})
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	pr := &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}
	ex := &Executor{Sources: sc.Sources}

	adaptive, err := ex.Run(context.Background(), adaptivePlan(t, pr))
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the static SJA plan's answer.
	sja, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	staticRun, err := ex.Run(context.Background(), sja.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Answer.Equal(staticRun.Answer) {
		t.Fatalf("adaptive answer %v != static %v", adaptive.Answer, staticRun.Answer)
	}
}

func TestRunAdaptiveEmptyFirstRoundShortCircuits(t *testing.T) {
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 52, NumSources: 3, TuplesPerSource: 100, Universe: 80,
		Selectivity: []float64{0.5, 0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the head condition with one that cannot match: the first
	// adaptive round drains the running set immediately.
	conds := append([]cond.Cond(nil), sc.Conds...)
	conds[0] = cond.MustParse("A1 < 0")
	profiles := stats.UniformProfiles(sc.SourceNames(), stats.SourceProfile{
		PerQuery: 5, PerItemSent: 0.01, PerItemRecv: 0.01, PerByteLoad: 0.001,
		Support: stats.SemijoinNative,
	})
	table, err := stats.BuildFromSources(context.Background(), conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	pr := &optimizer.Problem{Conds: conds, Sources: sc.SourceNames(), Table: table}
	ex := &Executor{Sources: sc.Sources}
	res, err := ex.Run(context.Background(), adaptivePlan(t, pr))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.IsEmpty() {
		t.Fatalf("answer = %v, want empty", res.Answer)
	}
	// First round issued n queries; a drained set must stop everything else.
	if res.SourceQueries != 3 {
		t.Fatalf("SourceQueries = %d, want 3 (remaining rounds skipped)", res.SourceQueries)
	}
}

func TestRunAdaptiveWithFlakySources(t *testing.T) {
	pr, _, _ := dmvSetup(t, nil)
	sc := workload.DMV()
	srcs := make([]source.Source, len(sc.Sources))
	for j, raw := range sc.Sources {
		srcs[j] = source.NewFlaky(raw, 0.3, int64(j+7))
	}
	ex := &Executor{Sources: srcs, Retries: 30}
	res, err := ex.Run(context.Background(), adaptivePlan(t, pr))
	if err != nil {
		t.Fatalf("adaptive with retries: %v", err)
	}
	if !res.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v", res.Answer)
	}
}

func TestRunAdaptiveValidatesInputs(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	ex := &Executor{Sources: srcs[:1]}
	if _, err := ex.Run(context.Background(), adaptivePlan(t, pr)); err == nil {
		t.Fatal("source count mismatch should fail")
	}
}

package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/source"
)

// TestRunCombinedMatchesTwoPhase: under every scheduler combined mode must
// produce exactly the answer and records that Run + FetchAnswer produce.
func TestRunCombinedMatchesTwoPhase(t *testing.T) {
	for _, mode := range runModes {
		for _, algo := range []func(*optimizer.Problem) (optimizer.Result, error){
			optimizer.Filter, optimizer.SJA, optimizer.SJAPlus,
		} {
			pr, srcs, network := dmvSetup(t, nil)
			res, err := algo(pr)
			if err != nil {
				t.Fatal(err)
			}
			twoEx := &Executor{Sources: srcs, Network: network}
			twoRun, err := twoEx.Run(context.Background(), res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			twoRecords, err := FetchAnswer(context.Background(), twoRun.Answer, srcs)
			if err != nil {
				t.Fatal(err)
			}

			pr2, srcs2, network2 := dmvSetup(t, nil)
			res2, err := algo(pr2)
			if err != nil {
				t.Fatal(err)
			}
			comEx := &Executor{Sources: srcs2, Network: network2, BatchSize: 1}
			mode.configure(comEx)
			comRun, records, err := comEx.RunCombined(context.Background(), res2.Plan)
			if err != nil {
				t.Fatalf("%s: RunCombined: %v\nplan:\n%s", mode.name, err, res2.Plan)
			}
			if !comRun.Answer.Equal(dmvAnswer) || !comRun.Answer.Equal(twoRun.Answer) {
				t.Fatalf("%s: combined answer %v != two-phase %v", mode.name, comRun.Answer, twoRun.Answer)
			}
			if records.Len() != 5 || !sameTuples(records, twoRecords) {
				t.Fatalf("%s: combined records\n%s\n!= two-phase\n%s\nplan:\n%s", mode.name, records, twoRecords, res2.Plan)
			}
		}
	}
}

// sameTuples reports whether two relations hold the same tuples, in any
// order.
func sameTuples(a, b *relation.Relation) bool {
	lines := func(r *relation.Relation) []string {
		var out []string
		for _, t := range r.Rows() {
			out = append(out, fmt.Sprint(t))
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(lines(a), lines(b))
}

// TestRunCombinedSkipsCoveredFetches: sources whose final-round record
// query covered the whole answer need no phase-two fetch.
func TestRunCombinedSkipsCoveredFetches(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs}
	_, records, err := ex.RunCombined(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if records.Len() != 5 {
		t.Fatalf("records = %d tuples, want 5", records.Len())
	}
	// The final round asked each source for sp-matching records; fetches
	// are only needed for answer items whose sp match was elsewhere.
	// R1: sp match {T21}; answer {J55, T21} → fetch {J55} (1 fetch).
	// R2: sp match {J55, T11}; fetch {T21} (1 fetch).
	// R3: sp match {S07, T21}; fetch {J55} (1 fetch).
	if got := fetches(network); got != 3 {
		t.Fatalf("fetch queries = %d, want 3 (only uncovered items fetched)", got)
	}
}

// fetches counts the phase-two record fetches in the network's log.
func fetches(network *netsim.Network) int {
	n := 0
	for _, ex := range network.Log() {
		if ex.Kind == "fetch" {
			n++
		}
	}
	return n
}

func TestRunCombinedEmptyAnswer(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindDiff, Out: "Z", Cond: -1, Source: -1, In: []string{"A", "A"}},
			{Kind: plan.KindIntersect, Out: "R", Cond: -1, Source: -1, In: []string{"Z", "A"}},
		},
		Result: "R",
	}
	ex := &Executor{Sources: srcs}
	run, records, err := ex.RunCombined(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Answer.IsEmpty() || records.Len() != 0 {
		t.Fatalf("empty-answer combined run: %v / %d records", run.Answer, records.Len())
	}
}

func TestRunCombinedNoSourceQueries(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0},
		},
		Result: "F1",
	}
	ex := &Executor{Sources: srcs}
	if _, _, err := ex.RunCombined(context.Background(), p); err == nil {
		t.Fatal("plan without condition queries should be rejected")
	}
}

func TestRunCombinedEmulatedSemijoinFallsBack(t *testing.T) {
	caps := []source.Capabilities{
		{PassedBindings: true},
		{PassedBindings: true},
		{PassedBindings: true},
	}
	for _, mode := range runModes {
		pr, srcs, _ := dmvSetup(t, caps)
		res, err := optimizer.SJA(pr)
		if err != nil {
			t.Fatal(err)
		}
		ex := &Executor{Sources: srcs, BatchSize: 1}
		mode.configure(ex)
		run, records, err := ex.RunCombined(context.Background(), res.Plan)
		if err != nil {
			t.Fatalf("%s: RunCombined with emulated semijoins: %v\nplan:\n%s", mode.name, err, res.Plan)
		}
		if !run.Answer.Equal(dmvAnswer) {
			t.Fatalf("%s: answer = %v", mode.name, run.Answer)
		}
		if records.Len() != 5 {
			t.Fatalf("%s: records = %d, want 5", mode.name, records.Len())
		}
	}
}

func TestRunCombinedWithLoadedSources(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.SJAPlus(pr) // tiny DMV sources: SJA+ loads them
	if err != nil {
		t.Fatal(err)
	}
	hasLoad := false
	for _, s := range res.Plan.Steps {
		if s.Kind == plan.KindLoad {
			hasLoad = true
		}
	}
	if !hasLoad {
		t.Skip("SJA+ did not load any source in this configuration")
	}
	for _, mode := range runModes {
		ex := &Executor{Sources: srcs, BatchSize: 1}
		mode.configure(ex)
		run, records, err := ex.RunCombined(context.Background(), res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Answer.Equal(dmvAnswer) || records.Len() != 5 {
			t.Fatalf("%s: answer %v, records %d", mode.name, run.Answer, records.Len())
		}
		// Loaded sources must not be fetched from: their contents are local.
		if got := fetches(network); got != 0 {
			t.Fatalf("%s: fetch queries = %d, want 0 (all sources loaded)", mode.name, got)
		}
	}
}

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

// withRecords is p retrieving its answer's records by the given schedule.
func withRecords(p *plan.Plan, records plan.Records) *plan.Plan {
	q := *p
	q.Records = records
	return &q
}

// TestRunCombinedMatchesTwoPhase: under every scheduler, both record
// schedules produce exactly the answer of Run and the records FetchAnswer
// fetches for it, and the records round is charged like a step: its work is
// in the trace and in TotalWork.
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

			for _, records := range []plan.Records{plan.FetchRecords, plan.FinalRecords} {
				pr2, srcs2, network2 := dmvSetup(t, nil)
				res2, err := algo(pr2)
				if err != nil {
					t.Fatal(err)
				}
				ex := &Executor{Sources: srcs2, Network: network2, BatchSize: 1}
				mode.configure(ex)
				run, err := ex.Run(context.Background(), withRecords(res2.Plan, records))
				if err != nil {
					t.Fatalf("%s/%s: %v\nplan:\n%s", mode.name, records, err, res2.Plan)
				}
				if !run.Answer.Equal(dmvAnswer) || !run.Answer.Equal(twoRun.Answer) {
					t.Fatalf("%s/%s: answer %v != two-phase %v", mode.name, records, run.Answer, twoRun.Answer)
				}
				if run.Records.Len() != 5 || !sameTuples(run.Records, twoRecords) {
					t.Fatalf("%s/%s: records\n%s\n!= two-phase\n%s\nplan:\n%s", mode.name, records, run.Records, twoRecords, res2.Plan)
				}
				if stepWork(run) != run.TotalWork || run.TotalWork != network2.Stats().TotalTime {
					t.Fatalf("%s/%s: steps' work %v, total work %v, the network carried %v", mode.name, records, stepWork(run), run.TotalWork, network2.Stats().TotalTime)
				}
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
	run, err := ex.Run(context.Background(), withRecords(res.Plan, plan.FinalRecords))
	if err != nil {
		t.Fatal(err)
	}
	if run.Records.Len() != 5 {
		t.Fatalf("records = %d tuples, want 5", run.Records.Len())
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
	pr, srcs, network := dmvSetup(t, nil)
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
	for _, records := range []plan.Records{plan.FetchRecords, plan.FinalRecords} {
		ex := &Executor{Sources: srcs}
		run, err := ex.Run(context.Background(), withRecords(p, records))
		if err != nil {
			t.Fatal(err)
		}
		if !run.Answer.IsEmpty() || run.Records.Len() != 0 || fetches(network) != 0 {
			t.Fatalf("%s: empty-answer run: %v / %d records, %d fetches", records, run.Answer, run.Records.Len(), fetches(network))
		}
	}
}

// TestRunCombinedNoSourceQueries: a plan that evaluates no condition at a
// source has no final round to ship records; they all come from what the
// plan loaded and from the fetch round.
func TestRunCombinedNoSourceQueries(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0},
		},
		Result: "F1",
	}
	ex := &Executor{Sources: srcs}
	run, err := ex.Run(context.Background(), withRecords(p, plan.FinalRecords))
	if err != nil {
		t.Fatal(err)
	}
	n := fetches(network)
	want, err := FetchAnswer(context.Background(), run.Answer, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(run.Records, want) || n != 2 {
		t.Fatalf("records\n%s\nwant\n%s\nwith the two unloaded sources fetched from (%d fetches)", run.Records, want, n)
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
		run, err := ex.Run(context.Background(), withRecords(res.Plan, plan.FinalRecords))
		if err != nil {
			t.Fatalf("%s: final-round records with emulated semijoins: %v\nplan:\n%s", mode.name, err, res.Plan)
		}
		if !run.Answer.Equal(dmvAnswer) {
			t.Fatalf("%s: answer = %v", mode.name, run.Answer)
		}
		if run.Records.Len() != 5 {
			t.Fatalf("%s: records = %d, want 5", mode.name, run.Records.Len())
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
		for _, records := range []plan.Records{plan.FetchRecords, plan.FinalRecords} {
			ex := &Executor{Sources: srcs, BatchSize: 1}
			mode.configure(ex)
			run, err := ex.Run(context.Background(), withRecords(res.Plan, records))
			if err != nil {
				t.Fatal(err)
			}
			if !run.Answer.Equal(dmvAnswer) || run.Records.Len() != 5 {
				t.Fatalf("%s/%s: answer %v, records %d", mode.name, records, run.Answer, run.Records.Len())
			}
			// Loaded sources must not be fetched from: their contents are local.
			if got := fetches(network); got != 0 {
				t.Fatalf("%s/%s: fetch queries = %d, want 0 (all sources loaded)", mode.name, records, got)
			}
		}
	}
}

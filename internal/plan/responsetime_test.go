package plan

import (
	"math"
	"testing"
)

func TestEstimateResponseTimeFilterPlan(t *testing.T) {
	tab := table32()
	p := filterPlan32()
	rt, err := EstimateResponseTime(p, tab)
	if err != nil {
		t.Fatalf("EstimateResponseTime: %v", err)
	}
	// Each round's two selections run in parallel: RT = 10 + 20 + 30,
	// versus total work 2*(10+20+30).
	if math.Abs(rt-60) > 1e-9 {
		t.Fatalf("RT = %v, want 60", rt)
	}
	est, err := EstimateCost(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	if rt > est.Cost {
		t.Fatalf("response time %v exceeds total work %v", rt, est.Cost)
	}
}

func TestEstimateResponseTimeSerializedChain(t *testing.T) {
	tab := table32()
	// A difference-pruned chain: the second semijoin depends on D, which
	// depends on the first — no parallelism across the chain.
	p := &Plan{
		Conds:   testConds(2),
		Sources: []string{"R1", "R2"},
		Steps: []Step{
			{Kind: KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12"}},
			{Kind: KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: KindDiff, Out: "D", Cond: -1, Source: -1, In: []string{"X1", "X21"}},
			{Kind: KindSemijoin, Out: "X22", Cond: 1, Source: 1, In: []string{"D"}},
			{Kind: KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22"}},
		},
		Result: "X2",
	}
	tab2 := tab
	tab2.Sq = tab.Sq[:2]
	tab2.Card = tab.Card[:2]
	tab2.SjFixed = tab.SjFixed[:2]
	tab2.SjPerItem = tab.SjPerItem[:2]
	tab2.Frac = tab.Frac[:2]
	rt, err := EstimateResponseTime(p, tab2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateCost(p, tab2)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 parallelizes (saves one 10-cost selection); the chained
	// semijoins serialize fully.
	if math.Abs((est.Cost-rt)-10) > 1e-9 {
		t.Fatalf("RT = %v, total = %v; chain should save exactly the round-1 overlap", rt, est.Cost)
	}
}

func TestEstimateResponseTimeInvalidPlan(t *testing.T) {
	p := filterPlan32()
	p.Result = "NOPE"
	if _, err := EstimateResponseTime(p, table32()); err == nil {
		t.Fatal("invalid plan should fail")
	}
}

func TestEstimateResponseTimeSameSourceSerializes(t *testing.T) {
	tab := table32()
	// Two independent selections at the SAME source cannot overlap: the
	// source processes its queries serially.
	p := &Plan{
		Conds:   testConds(2),
		Sources: []string{"R1", "R2"},
		Steps: []Step{
			{Kind: KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: KindSelect, Out: "B", Cond: 1, Source: 0},
			{Kind: KindUnion, Out: "X", Cond: -1, Source: -1, In: []string{"A", "B"}},
		},
		Result: "X",
	}
	tab2 := tab
	tab2.Sq = tab.Sq[:2]
	tab2.Card = tab.Card[:2]
	tab2.SjFixed = tab.SjFixed[:2]
	tab2.SjPerItem = tab.SjPerItem[:2]
	tab2.Frac = tab.Frac[:2]
	rt, err := EstimateResponseTime(p, tab2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt-30) > 1e-9 { // 10 + 20, not max(10, 20)
		t.Fatalf("RT = %v, want 30 (same-source queries serialize)", rt)
	}
}

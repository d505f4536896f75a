package plan

import (
	"math"
	"testing"

	"fusionq/internal/set"
	"fusionq/internal/stats"
)

func TestEstimateStreamCostFilter(t *testing.T) {
	tab := table32()
	tab.QueryFixed = []float64{2, 2}
	p := filterPlan32()
	est, err := EstimateStreamCost(p, tab, 4)
	if err != nil {
		t.Fatalf("EstimateStreamCost: %v", err)
	}
	// Cardinalities and materialized costs must match the base estimator.
	base, err := EstimateCost(p, tab)
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	if est.Estimate.Cost != base.Cost {
		t.Errorf("embedded base cost = %v, want %v", est.Estimate.Cost, base.Cost)
	}
	// Every step's output follows the schedule from 4 (4, 8, 16, …): the
	// selections' cards 5, 15, 25 → 2, 3, 3 batches; X1 = 10 → 2; the
	// unions X2 := X21 ∪ X22 = 30 and X3 := X31 ∪ X32 = 50 → 4 each, though
	// their names are assigned again, by intersections of 3 and 1.5 items
	// → 1 each.
	wantBatches := []float64{2, 2, 2, 3, 3, 4, 1, 3, 3, 4, 1}
	for k, want := range wantBatches {
		if got := est.Batches[k]; got != want {
			t.Errorf("Batches[%d] (%s) = %v, want %v", k, p.StepString(p.Steps[k]), got, want)
		}
	}
	// Extra chunks: (1+1) + (2+2) + (2+2) = 10, each charging PerQuery = 2.
	if got, want := est.ChunkOverhead, 20.0; got != want {
		t.Errorf("ChunkOverhead = %v, want %v", got, want)
	}
	if got, want := est.Cost, base.Cost+20; got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	// The first answer batch needs the first chunk of 4 items from every
	// selection feeding the final intersect: max(10·4/5, 20·4/15, 30·4/25)
	// = 8.
	if got, want := est.FirstAnswerCost, 8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("FirstAnswerCost = %v, want %v", got, want)
	}
	if est.FirstAnswerCost >= est.Cost {
		t.Errorf("FirstAnswerCost %v should be far below total %v", est.FirstAnswerCost, est.Cost)
	}
}

func TestEstimateStreamCostSemijoin(t *testing.T) {
	tab := table32()
	tab.QueryFixed = []float64{2, 2}
	tab.Support = []stats.SemijoinSupport{stats.SemijoinNative, stats.SemijoinNative}
	p := &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Class:   "sj",
		Steps: []Step{
			{Kind: KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12"}},
			{Kind: KindSemijoin, Out: "X2", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: KindSemijoin, Out: "X3", Cond: 2, Source: 0, In: []string{"X2"}},
		},
		Result: "X3",
	}
	est, err := EstimateStreamCost(p, tab, 4)
	if err != nil {
		t.Fatalf("EstimateStreamCost: %v", err)
	}
	// |X1| = 10 → 2 batches (4, 6) → the first native semijoin probes twice,
	// paying PerQuery for the extra probe. |X2| = 1.5 → a single batch, so
	// the second semijoin adds nothing. The selections chunk once each.
	if got, want := est.ChunkOverhead, 2.0+2*2.0; got != want {
		t.Errorf("ChunkOverhead = %v, want %v", got, want)
	}
	// First answer: the first select chunk (4 of 5 items: 10·4/5 = 8), then
	// the first batch's share of each semijoin: 8 + 6·4/10 + 1.75 = 12.15.
	if got, want := est.FirstAnswerCost, 12.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("FirstAnswerCost = %v, want %v", got, want)
	}
}

func TestEstimateStreamCostBarriers(t *testing.T) {
	tab := table32()
	tab.QueryFixed = []float64{2, 2}
	tab.SjbFixed = [][]float64{{3, 3}, {3, 3}, {3, 3}}
	tab.SjbPerItem = [][]float64{{0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}}
	p := &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Class:   "test",
		Steps: []Step{
			{Kind: KindSelect, Out: "X1", Cond: 0, Source: 0},
			{Kind: KindBloomSemijoin, Out: "X2", Cond: 1, Source: 1, In: []string{"X1"}},
			{Kind: KindLoad, Out: "L", Cond: -1, Source: 0},
			{Kind: KindLocalSelect, Out: "X3", Cond: 2, Source: -1, In: []string{"L"}},
			{Kind: KindIntersect, Out: "X4", Cond: -1, Source: -1, In: []string{"X2", "X3"}},
		},
		Result: "X4",
	}
	est, err := EstimateStreamCost(p, tab, 4)
	if err != nil {
		t.Fatalf("EstimateStreamCost: %v", err)
	}
	// The Bloom semijoin is a barrier: its first output waits for the whole
	// selection (10), then the exchange (3 + 0.1·5 = 3.5). The local select
	// waits for the full load (100). The final merge needs both heads.
	if got, want := est.FirstAnswerCost, 100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("FirstAnswerCost = %v, want %v", got, want)
	}
	// Barriers are single exchanges: only the selection chunks (card 5 at
	// batch 4 → one continuation).
	if got, want := est.ChunkOverhead, 2.0; got != want {
		t.Errorf("ChunkOverhead = %v, want %v", got, want)
	}
}

func TestEstimateStreamCostLargeBatchConverges(t *testing.T) {
	tab := table32()
	tab.QueryFixed = []float64{2, 2}
	p := filterPlan32()
	est, err := EstimateStreamCost(p, tab, 1000)
	if err != nil {
		t.Fatalf("EstimateStreamCost: %v", err)
	}
	// One batch per step: no chunk overhead, streaming cost equals the
	// materialized estimate.
	if est.ChunkOverhead != 0 {
		t.Errorf("ChunkOverhead = %v, want 0", est.ChunkOverhead)
	}
	if est.Cost != est.Estimate.Cost {
		t.Errorf("Cost = %v, want base %v", est.Cost, est.Estimate.Cost)
	}
	for k, b := range est.Batches {
		if b != 1 {
			t.Errorf("Batches[%d] = %v, want 1", k, b)
		}
	}
}

func TestEstimateStreamCostDefaultsAndErrors(t *testing.T) {
	tab := table32()
	p := filterPlan32()
	if _, err := EstimateStreamCost(p, tab, 0); err != nil {
		t.Fatalf("batch 0 should default, got %v", err)
	}
	bad := filterPlan32()
	bad.Conds = bad.Conds[:2]
	if _, err := EstimateStreamCost(bad, tab, 4); err == nil {
		t.Fatal("mismatched conditions should error")
	}
}

// TestEstimateStreamCostCountsTheSchedule: the estimate's batch count for a
// selection of n items is the number of batches set.Schedule cuts n items
// into (at least one: an empty result is still an exchange), for every n in
// a stride through [0, 20 000] and each first size.
func TestEstimateStreamCostCountsTheSchedule(t *testing.T) {
	p := &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Class:   "test",
		Steps:   []Step{{Kind: KindSelect, Out: "X", Cond: 0, Source: 0}},
		Result:  "X",
	}
	for _, first := range []int{1, 4, 256} {
		for n := 0; n <= 20000; n += 1 + n/16 {
			tab := table32()
			tab.Card[0][0] = float64(n)
			est, err := EstimateStreamCost(p, tab, first)
			if err != nil {
				t.Fatal(err)
			}
			cut := 0
			for s, left := set.NewSchedule(first), n; left > 0; cut++ {
				left -= s.Next()
			}
			if want := float64(max(cut, 1)); est.Batches[0] != want {
				t.Fatalf("%d items from %d: Batches = %v, the schedule cuts %v", n, first, est.Batches[0], want)
			}
		}
	}
}

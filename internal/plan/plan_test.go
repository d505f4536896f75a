package plan

import (
	"math"
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/stats"
)

// testConds builds m trivially distinct conditions.
func testConds(m int) []cond.Cond {
	out := make([]cond.Cond, m)
	for i := range out {
		out[i] = cond.MustParse("V = 'c" + string(rune('1'+i)) + "'")
	}
	return out
}

// table32 is a hand-built cost table for 3 conditions and 2 sources with
// simple round numbers.
func table32() *stats.CostTable {
	return &stats.CostTable{
		SourceNames: []string{"R1", "R2"},
		Domain:      100,
		Sq:          [][]float64{{10, 10}, {20, 20}, {30, 30}},
		Card:        [][]float64{{5, 5}, {15, 15}, {25, 25}},
		SjFixed:     [][]float64{{1, 1}, {1, 1}, {1, 1}},
		SjPerItem:   [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}},
		Frac:        [][]float64{{0.05, 0.05}, {0.15, 0.15}, {0.25, 0.25}},
		Load:        []float64{100, 100},
		SourceBytes: []float64{1000, 1000},
		SourceItems: []float64{50, 50},
	}
}

// filterPlan32 is the Figure 2(a) filter plan for 3 conditions, 2 sources.
func filterPlan32() *Plan {
	return &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Class:   "filter",
		Steps: []Step{
			{Kind: KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12"}},
			{Kind: KindSelect, Out: "X21", Cond: 1, Source: 0},
			{Kind: KindSelect, Out: "X22", Cond: 1, Source: 1},
			{Kind: KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22"}},
			{Kind: KindIntersect, Out: "X2", Cond: -1, Source: -1, In: []string{"X2", "X1"}},
			{Kind: KindSelect, Out: "X31", Cond: 2, Source: 0},
			{Kind: KindSelect, Out: "X32", Cond: 2, Source: 1},
			{Kind: KindUnion, Out: "X3", Cond: -1, Source: -1, In: []string{"X31", "X32"}},
			{Kind: KindIntersect, Out: "X3", Cond: -1, Source: -1, In: []string{"X3", "X2"}},
		},
		Result: "X3",
	}
}

func TestValidateOK(t *testing.T) {
	if err := filterPlan32().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Plan { return filterPlan32() }
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"empty out", func(p *Plan) { p.Steps[0].Out = "" }},
		{"bad cond index", func(p *Plan) { p.Steps[0].Cond = 9 }},
		{"negative cond index", func(p *Plan) { p.Steps[0].Cond = -1 }},
		{"bad source index", func(p *Plan) { p.Steps[0].Source = 5 }},
		{"select with inputs", func(p *Plan) { p.Steps[0].In = []string{"X1"} }},
		{"use before def", func(p *Plan) { p.Steps[2].In = []string{"X11", "NOPE"} }},
		{"union no inputs", func(p *Plan) { p.Steps[2].In = nil }},
		{"no result", func(p *Plan) { p.Result = "" }},
		{"undefined result", func(p *Plan) { p.Result = "Z" }},
	}
	for _, c := range cases {
		p := base()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
}

func TestValidateDiffArity(t *testing.T) {
	p := &Plan{
		Conds:   testConds(1),
		Sources: []string{"R1"},
		Steps: []Step{
			{Kind: KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: KindDiff, Out: "D", Cond: -1, Source: -1, In: []string{"A"}},
		},
		Result: "D",
	}
	if err := p.Validate(); err == nil {
		t.Fatal("diff with one input should fail validation")
	}
	p.Steps[1].In = []string{"A", "A"}
	if err := p.Validate(); err != nil {
		t.Fatalf("diff with two inputs should validate: %v", err)
	}
}

func TestValidateSemijoinArity(t *testing.T) {
	p := &Plan{
		Conds:   testConds(1),
		Sources: []string{"R1"},
		Steps: []Step{
			{Kind: KindSemijoin, Out: "A", Cond: 0, Source: 0, In: nil},
		},
		Result: "A",
	}
	if err := p.Validate(); err == nil {
		t.Fatal("semijoin without input should fail")
	}
}

// TestStringFigure2a reproduces the paper's Figure 2(a) listing.
func TestStringFigure2a(t *testing.T) {
	got := filterPlan32().String()
	want := strings.Join([]string{
		" 1) X11 := sq(c1, R1)",
		" 2) X12 := sq(c1, R2)",
		" 3) X1 := X11 ∪ X12",
		" 4) X21 := sq(c2, R1)",
		" 5) X22 := sq(c2, R2)",
		" 6) X2 := X21 ∪ X22",
		" 7) X2 := X2 ∩ X1",
		" 8) X31 := sq(c3, R1)",
		" 9) X32 := sq(c3, R2)",
		"10) X3 := X31 ∪ X32",
		"11) X3 := X3 ∩ X2",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("Figure 2(a) mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestStepStringAllKinds(t *testing.T) {
	p := &Plan{Conds: testConds(2), Sources: []string{"R1", "R2"}}
	cases := []struct {
		step Step
		want string
	}{
		{Step{Kind: KindSelect, Out: "X", Cond: 0, Source: 1}, "X := sq(c1, R2)"},
		{Step{Kind: KindSemijoin, Out: "X", Cond: 1, Source: 0, In: []string{"Y"}}, "X := sjq(c2, R1, Y)"},
		{Step{Kind: KindLoad, Out: "F1", Cond: -1, Source: 0}, "F1 := lq(R1)"},
		{Step{Kind: KindLocalSelect, Out: "X", Cond: 0, In: []string{"F1"}}, "X := sq(c1, F1)"},
		{Step{Kind: KindUnion, Out: "X", In: []string{"A", "B", "C"}}, "X := A ∪ B ∪ C"},
		{Step{Kind: KindIntersect, Out: "X", In: []string{"A", "B"}}, "X := A ∩ B"},
		{Step{Kind: KindDiff, Out: "X", In: []string{"A", "B"}}, "X := A − B"},
		{Step{Kind: KindBloomSemijoin, Out: "X", Cond: 11, Source: 1, In: []string{"Y"}}, "X := sjq(c12, R2, bloom(Y))"},
		{Step{Kind: Kind(42), Out: "X"}, "X := ?42"},
	}
	for _, c := range cases {
		if got := p.StepString(c.step); got != c.want {
			t.Errorf("StepString = %q, want %q", got, c.want)
		}
	}
}

func TestNumSourceQueries(t *testing.T) {
	if got := filterPlan32().NumSourceQueries(); got != 6 {
		t.Fatalf("NumSourceQueries = %d, want 6 (mn)", got)
	}
}

func TestEstimateFilterPlan(t *testing.T) {
	tab := table32()
	est, err := EstimateCost(filterPlan32(), tab)
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	// Six selections: 2*(10+20+30) = 120.
	if est.Cost != 120 {
		t.Fatalf("Cost = %v, want 120", est.Cost)
	}
	// X1 (step 2) = 5+5 = 10 items.
	if est.Cards[2] != 10 {
		t.Fatalf("card(X1) = %v, want 10", est.Cards[2])
	}
	// X2 := X21 ∪ X22 (step 5) = 15+15 = 30 items; X2 := X2 ∩ X1 (step 6)
	// = RoundCard(c2, 10) = 10 * 0.3 = 3.
	if est.Cards[5] != 30 || math.Abs(est.Cards[6]-3) > 1e-9 {
		t.Fatalf("card(X2) = %v then %v, want 30 then 3", est.Cards[5], est.Cards[6])
	}
	// X3 (step 10) = 3 * 0.5 = 1.5.
	if math.Abs(est.Cards[10]-1.5) > 1e-9 {
		t.Fatalf("card(X3) = %v, want 1.5", est.Cards[10])
	}
}

func TestEstimateSemijoinPlan(t *testing.T) {
	tab := table32()
	p := &Plan{
		Conds:   testConds(2),
		Sources: []string{"R1", "R2"},
		Steps: []Step{
			{Kind: KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12"}},
			{Kind: KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: KindSemijoin, Out: "X22", Cond: 1, Source: 1, In: []string{"X1"}},
			{Kind: KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22"}},
		},
		Result: "X2",
	}
	tab2 := &stats.CostTable{
		SourceNames: tab.SourceNames, Domain: tab.Domain,
		Sq: tab.Sq[:2], Card: tab.Card[:2], SjFixed: tab.SjFixed[:2], SjPerItem: tab.SjPerItem[:2],
		Frac: tab.Frac[:2], Load: tab.Load, SourceBytes: tab.SourceBytes, SourceItems: tab.SourceItems,
	}
	est, err := EstimateCost(p, tab2)
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	// 2 selections (20) + 2 semijoins over 10 items: 2*(1 + 0.5*10) = 12.
	if est.Cost != 32 {
		t.Fatalf("Cost = %v, want 32", est.Cost)
	}
	// Semijoin outputs: 10 * 0.15 = 1.5 each; union (step 5) = 3.
	if math.Abs(est.Cards[5]-3) > 1e-9 {
		t.Fatalf("card(X2) = %v, want 3", est.Cards[5])
	}
}

func TestEstimateLoadAndLocal(t *testing.T) {
	tab := table32()
	p := &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Steps: []Step{
			{Kind: KindLoad, Out: "F1", Cond: -1, Source: 0},
			{Kind: KindLocalSelect, Out: "X11", Cond: 0, Source: -1, In: []string{"F1"}},
			{Kind: KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12"}},
		},
		Result: "X1",
	}
	est, err := EstimateCost(p, tab)
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	// lq(R1) = 100 + sq(c1, R2) = 10; the local selection is free.
	if est.Cost != 110 {
		t.Fatalf("Cost = %v, want 110", est.Cost)
	}
	if est.Cards[0] != 50 {
		t.Fatalf("card(F1) = %v, want 50", est.Cards[0])
	}
	if est.Cards[1] != 5 {
		t.Fatalf("card(X11) = %v, want 5 (Card[c1][R1])", est.Cards[1])
	}
}

func TestEstimateDiff(t *testing.T) {
	tab := table32()
	p := &Plan{
		Conds:   testConds(3),
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
	est, err := EstimateCost(p, tab)
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	// X1 = 10; X21 = 1.5; D = 8.5; second semijoin is charged for 8.5
	// items instead of 10 — the pruning saving.
	if math.Abs(est.Cards[4]-8.5) > 1e-9 {
		t.Fatalf("card(D) = %v, want 8.5", est.Cards[4])
	}
	wantCost := 10.0 + 10.0 + (1 + 0.5*10) + (1 + 0.5*8.5)
	if math.Abs(est.Cost-wantCost) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", est.Cost, wantCost)
	}
}

func TestEstimateUnsupportedSemijoinIsInf(t *testing.T) {
	tab := table32()
	tab.SjFixed[1][0] = math.Inf(1)
	p := &Plan{
		Conds:   testConds(3),
		Sources: []string{"R1", "R2"},
		Steps: []Step{
			{Kind: KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11"}},
			{Kind: KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
		},
		Result: "X21",
	}
	est, err := EstimateCost(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est.Cost, 1) {
		t.Fatalf("Cost = %v, want +Inf", est.Cost)
	}
}

func TestEstimateDimensionMismatch(t *testing.T) {
	p := filterPlan32()
	tab := table32()
	tab.SourceNames = tab.SourceNames[:1]
	if _, err := EstimateCost(p, tab); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestEstimateInvalidPlan(t *testing.T) {
	p := filterPlan32()
	p.Result = "NOPE"
	if _, err := EstimateCost(p, table32()); err == nil {
		t.Fatal("invalid plan should fail estimation")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindSelect: "sq", KindSemijoin: "sjq", KindLoad: "lq",
		KindLocalSelect: "local-sq", KindUnion: "union",
		KindIntersect: "intersect", KindDiff: "diff",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCondAndSourceNames(t *testing.T) {
	if CondName(0) != "c1" || CondName(9) != "c10" {
		t.Fatal("CondName mismatch")
	}
	if SourceName(0) != "R1" || SourceName(10) != "R11" {
		t.Fatal("SourceName mismatch")
	}
}

func TestDOTOutput(t *testing.T) {
	p := filterPlan32()
	dot := p.DOT()
	for _, want := range []string{
		"digraph plan {",
		`s0 [label="X11 := sq(c1, R1)"`,
		"shape=box",
		`s2 -> s6 [label="X1"]`, // X1 (step 3) feeds the round-2 intersect (step 7)
		"doubleoctagon",
		"s10 -> result",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Reassigned variables must connect from the latest definition: the
	// final intersect (s10) reads X2 from s6 (the round-2 intersect), not
	// from the earlier union s5.
	if !strings.Contains(dot, `s6 -> s10 [label="X2"]`) {
		t.Fatalf("reassignment edges wrong:\n%s", dot)
	}
	if strings.Contains(dot, `s5 -> s10`) {
		t.Fatalf("stale definition edge present:\n%s", dot)
	}
}

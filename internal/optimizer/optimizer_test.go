package optimizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/plan"
	"fusionq/internal/stats"
)

// mkConds builds m distinct conditions.
func mkConds(m int) []cond.Cond {
	out := make([]cond.Cond, m)
	for i := range out {
		out[i] = cond.MustParse("A1 < 10") // content is irrelevant to optimization
	}
	return out
}

func mkNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = plan.SourceName(i)
	}
	_ = prefix
	return out
}

// randomProblem draws a problem of 1–3 conditions over 1–4 sources, each
// source's costs and semijoin support drawn too.
func randomProblem(t testing.TB, rng *rand.Rand) *Problem {
	t.Helper()
	m := 1 + rng.Intn(3)
	n := 1 + rng.Intn(4)
	cards := make([][]float64, m)
	for i := range cards {
		cards[i] = make([]float64, n)
		for j := range cards[i] {
			cards[i][j] = float64(rng.Intn(400))
		}
	}
	profiles := make([]stats.SourceProfile, n)
	for j := range profiles {
		sup := stats.SemijoinSupport(rng.Intn(3))
		profiles[j] = stats.SourceProfile{
			Name:        plan.SourceName(j),
			PerQuery:    1 + rng.Float64()*20,
			PerItemSent: rng.Float64() * 2,
			PerItemRecv: rng.Float64() * 2,
			PerByteLoad: rng.Float64() * 0.01,
			Support:     sup,
		}
	}
	return mkProblem(t, m, n, cards, profiles)
}

// mkProblem assembles a Problem from synthetic statistics and profiles.
func mkProblem(t testing.TB, m, n int, cards [][]float64, profiles []stats.SourceProfile) *Problem {
	t.Helper()
	sts := make([]stats.SourceStats, n)
	for j := 0; j < n; j++ {
		cc := make([]float64, m)
		for i := 0; i < m; i++ {
			cc[i] = cards[i][j]
		}
		sts[j] = stats.SourceStats{
			Name: plan.SourceName(j), Tuples: 1000, DistinctItems: 500, Bytes: 10000, CondCard: cc,
		}
	}
	table, err := stats.Build(mkConds(m), sts, profiles)
	if err != nil {
		t.Fatalf("stats.Build: %v", err)
	}
	return &Problem{Conds: mkConds(m), Sources: mkNames("R", n), Table: table}
}

func uniformProfiles(n int, p stats.SourceProfile) []stats.SourceProfile {
	out := make([]stats.SourceProfile, n)
	for i := range out {
		out[i] = p
		out[i].Name = plan.SourceName(i)
	}
	return out
}

// defaultProfile charges 10 per query, 1 per item each way, native support.
func defaultProfile() stats.SourceProfile {
	return stats.SourceProfile{PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.01, Support: stats.SemijoinNative}
}

// selectiveFirstCards: c1 very selective, later conditions broad — the
// regime where semijoins win.
func selectiveFirstCards(m, n int) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == 0 {
				out[i][j] = 5
			} else {
				out[i][j] = 200
			}
		}
	}
	return out
}

func TestPermutations(t *testing.T) {
	for m, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		seen := map[string]bool{}
		count := 0
		for ord, more := identityOrder(m), true; more; more = nextPermutation(ord) {
			key := ""
			for _, x := range ord {
				key += string(rune('0' + x))
			}
			seen[key] = true
			count++
		}
		if count != want || len(seen) != want {
			t.Errorf("permutations of %d: count=%d distinct=%d, want %d", m, count, len(seen), want)
		}
	}
}

func TestFilterShapeAndCost(t *testing.T) {
	pr := mkProblem(t, 3, 4, selectiveFirstCards(3, 4), uniformProfiles(4, defaultProfile()))
	res, err := Filter(pr)
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if got := res.Plan.NumSourceQueries(); got != 12 {
		t.Fatalf("filter plan has %d source queries, want mn=12", got)
	}
	for _, s := range res.Plan.Steps {
		if s.Kind == plan.KindSemijoin || s.Kind == plan.KindLoad {
			t.Fatalf("filter plan contains %v step", s.Kind)
		}
	}
	est, err := plan.EstimateCost(res.Plan, pr.Table)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Cost-res.Cost) > 1e-9 {
		t.Fatalf("FILTER bookkeeping %v != estimator %v", res.Cost, est.Cost)
	}
}

func TestSJBookkeepingMatchesEstimator(t *testing.T) {
	pr := mkProblem(t, 3, 3, selectiveFirstCards(3, 3), uniformProfiles(3, defaultProfile()))
	res, err := SJ(pr)
	if err != nil {
		t.Fatalf("SJ: %v", err)
	}
	est, err := plan.EstimateCost(res.Plan, pr.Table)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Cost-res.Cost) > 1e-6 {
		t.Fatalf("SJ bookkeeping %v != estimator %v\nplan:\n%s", res.Cost, est.Cost, res.Plan)
	}
}

func TestSJABookkeepingMatchesEstimator(t *testing.T) {
	pr := mkProblem(t, 3, 3, selectiveFirstCards(3, 3), uniformProfiles(3, defaultProfile()))
	res, err := SJA(pr)
	if err != nil {
		t.Fatalf("SJA: %v", err)
	}
	est, err := plan.EstimateCost(res.Plan, pr.Table)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Cost-res.Cost) > 1e-6 {
		t.Fatalf("SJA bookkeeping %v != estimator %v\nplan:\n%s", res.Cost, est.Cost, res.Plan)
	}
}

func TestSJUsesSemijoinsWhenProfitable(t *testing.T) {
	pr := mkProblem(t, 2, 2, selectiveFirstCards(2, 2), uniformProfiles(2, defaultProfile()))
	res, err := SJ(pr)
	if err != nil {
		t.Fatal(err)
	}
	semis := 0
	for _, s := range res.Plan.Steps {
		if s.Kind == plan.KindSemijoin {
			semis++
		}
	}
	if semis != 2 {
		t.Fatalf("SJ plan has %d semijoins, want 2 (all sources in round 2):\n%s", semis, res.Plan)
	}
	// The selective condition must be evaluated first.
	if res.Sketch.Ordering[0] != 0 {
		t.Fatalf("ordering = %v, want c1 first", res.Sketch.Ordering)
	}
}

// Heterogeneous capability: R1 native, R2 without any semijoin support. SJA
// adapts per source; SJ cannot (its semijoin rounds would cost +Inf at R2),
// so SJA is strictly cheaper. This is the paper's motivating scenario for
// the semijoin-adaptive class (Section 2.5).
func heterogeneousProblem(t testing.TB) *Problem {
	profiles := []stats.SourceProfile{
		{Name: "R1", PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.01, Support: stats.SemijoinNative},
		{Name: "R2", PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.01, Support: stats.SemijoinNone},
	}
	return mkProblem(t, 2, 2, selectiveFirstCards(2, 2), profiles)
}

func TestSJAAdaptsPerSource(t *testing.T) {
	pr := heterogeneousProblem(t)
	sja, err := SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := SJ(pr)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !(sja.Cost < sj.Cost) {
		t.Fatalf("SJA (%v) should beat SJ (%v) under heterogeneous capabilities", sja.Cost, sj.Cost)
	}
	if sj.Cost > filter.Cost+1e-9 {
		t.Fatalf("SJ (%v) should never exceed FILTER (%v)", sj.Cost, filter.Cost)
	}
	// SJA's round 2: semijoin at R1, selection at R2.
	r2 := sja.Sketch.Choices[1]
	if r2[0] != MethodSemijoin || r2[1] != MethodSelect {
		t.Fatalf("SJA round-2 choices = %v, want [sjq sq]", r2)
	}
	// The emitted plan must never semijoin the incapable source.
	for _, s := range sja.Plan.Steps {
		if s.Kind == plan.KindSemijoin && s.Source == 1 {
			t.Fatalf("SJA plan semijoins the incapable source:\n%s", sja.Plan)
		}
	}
}

func TestHierarchySJALeSJLeFilterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		pr := randomProblem(t, rng)
		f, err := Filter(pr)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := SJ(pr)
		if err != nil {
			t.Fatal(err)
		}
		sja, err := SJA(pr)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		if sja.Cost > sj.Cost+eps {
			t.Fatalf("trial %d: SJA %v > SJ %v", trial, sja.Cost, sj.Cost)
		}
		if sj.Cost > f.Cost+eps {
			t.Fatalf("trial %d: SJ %v > FILTER %v", trial, sj.Cost, f.Cost)
		}
	}
}

// SJA's per-source decisions must reach the brute-force optimum over the
// entire semijoin-adaptive space — the paper's central algorithmic claim.
func TestSJAMatchesExhaustiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(2) // 2..3
		n := 1 + rng.Intn(3) // 1..3
		cards := make([][]float64, m)
		for i := range cards {
			cards[i] = make([]float64, n)
			for j := range cards[i] {
				cards[i][j] = float64(rng.Intn(300))
			}
		}
		profiles := make([]stats.SourceProfile, n)
		for j := range profiles {
			profiles[j] = stats.SourceProfile{
				Name:        plan.SourceName(j),
				PerQuery:    1 + rng.Float64()*15,
				PerItemSent: rng.Float64(),
				PerItemRecv: rng.Float64(),
				PerByteLoad: 0.001,
				Support:     stats.SemijoinSupport(rng.Intn(3)),
			}
		}
		pr := mkProblem(t, m, n, cards, profiles)
		sja, err := SJA(pr)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Exhaustive(pr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sja.Cost-oracle.Cost) > 1e-6 {
			t.Fatalf("trial %d (m=%d n=%d): SJA %v != exhaustive %v\nSJA plan:\n%s\noracle plan:\n%s",
				trial, m, n, sja.Cost, oracle.Cost, sja.Plan, oracle.Plan)
		}
	}
}

func TestGreedyValidAndReasonable(t *testing.T) {
	pr := mkProblem(t, 4, 4, selectiveFirstCards(4, 4), uniformProfiles(4, defaultProfile()))
	exact, err := SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := GreedySJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost < exact.Cost-1e-9 {
		t.Fatalf("greedy %v cheaper than exact SJA %v: bookkeeping bug", greedy.Cost, exact.Cost)
	}
	// With the uniform selective-first workload the heuristic ordering is
	// optimal, so greedy should match exactly.
	if math.Abs(greedy.Cost-exact.Cost) > 1e-6 {
		t.Fatalf("greedy %v != exact %v on monotone workload", greedy.Cost, exact.Cost)
	}
	gsj, err := GreedySJ(pr)
	if err != nil {
		t.Fatal(err)
	}
	if gsj.Cost < exact.Cost-1e-9 {
		t.Fatalf("GreedySJ %v cheaper than SJA %v", gsj.Cost, exact.Cost)
	}
	if err := gsj.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyOrderingMostSelectiveFirst(t *testing.T) {
	cards := [][]float64{
		{100, 100}, // c1 broad
		{2, 2},     // c2 most selective
		{50, 50},   // c3 middle
	}
	pr := mkProblem(t, 3, 2, cards, uniformProfiles(2, defaultProfile()))
	ord := greedyOrdering(pr)
	if ord[0] != 1 || ord[1] != 2 || ord[2] != 0 {
		t.Fatalf("greedyOrdering = %v, want [1 2 0]", ord)
	}
}

func TestSJAPlusNeverWorseThanSJA(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(4)
		cards := make([][]float64, m)
		for i := range cards {
			cards[i] = make([]float64, n)
			for j := range cards[i] {
				cards[i][j] = float64(rng.Intn(300))
			}
		}
		profiles := make([]stats.SourceProfile, n)
		for j := range profiles {
			profiles[j] = stats.SourceProfile{
				Name:        plan.SourceName(j),
				PerQuery:    1 + rng.Float64()*15,
				PerItemSent: rng.Float64(),
				PerItemRecv: rng.Float64(),
				PerByteLoad: rng.Float64() * 0.01,
				Support:     stats.SemijoinSupport(rng.Intn(3)),
			}
		}
		pr := mkProblem(t, m, n, cards, profiles)
		sja, err := SJA(pr)
		if err != nil {
			t.Fatal(err)
		}
		plus, err := SJAPlus(pr)
		if err != nil {
			t.Fatal(err)
		}
		if plus.Cost > sja.Cost+1e-9 {
			t.Fatalf("trial %d: SJA+ %v > SJA %v\nplan:\n%s", trial, plus.Cost, sja.Cost, plus.Plan)
		}
		if err := plus.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSJAPlusLoadsTinySource(t *testing.T) {
	// R2 is tiny: loading it outright beats querying it m times.
	m, n := 3, 2
	profiles := uniformProfiles(n, defaultProfile())
	sts := []stats.SourceStats{
		{Name: "R1", Tuples: 1000, DistinctItems: 500, Bytes: 100000, CondCard: []float64{50, 50, 50}},
		{Name: "R2", Tuples: 4, DistinctItems: 4, Bytes: 40, CondCard: []float64{2, 2, 2}},
	}
	table, err := stats.Build(mkConds(m), sts, profiles)
	if err != nil {
		t.Fatal(err)
	}
	pr := &Problem{Conds: mkConds(m), Sources: mkNames("R", n), Table: table}
	plus, err := SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !plus.Sketch.Loaded[1] {
		t.Fatalf("SJA+ should load the tiny R2; sketch = %+v\nplan:\n%s", plus.Sketch, plus.Plan)
	}
	loads := 0
	locals := 0
	for _, s := range plus.Plan.Steps {
		switch s.Kind {
		case plan.KindLoad:
			loads++
			if s.Source != 1 {
				t.Fatalf("loaded wrong source %d", s.Source)
			}
		case plan.KindLocalSelect:
			locals++
		case plan.KindSelect, plan.KindSemijoin:
			if s.Source == 1 {
				t.Fatalf("R2 still queried remotely after load:\n%s", plus.Plan)
			}
		}
	}
	if loads != 1 || locals == 0 {
		t.Fatalf("loads=%d locals=%d, want 1 load and some local selections", loads, locals)
	}
	sja, err := SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !(plus.Cost < sja.Cost) {
		t.Fatalf("loading should be strictly cheaper: SJA+ %v vs SJA %v", plus.Cost, sja.Cost)
	}
}

func TestSJAPlusDiffPruningSavesCost(t *testing.T) {
	// A selective head condition and a broad second condition over three
	// native-semijoin sources: round two runs semijoins, and pruning each
	// later semijoin's input by the earlier answers must save cost.
	m, n := 2, 3
	cards := [][]float64{{5, 5, 5}, {400, 400, 400}}
	profiles := uniformProfiles(n, stats.SourceProfile{
		PerQuery: 5, PerItemSent: 2, PerItemRecv: 1, PerByteLoad: 10, Support: stats.SemijoinNative,
	})
	pr := mkProblem(t, m, n, cards, profiles)
	sja, err := SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	plus, err := SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	hasDiff := false
	for _, s := range plus.Plan.Steps {
		if s.Kind == plan.KindDiff {
			hasDiff = true
		}
	}
	if !hasDiff {
		t.Fatalf("SJA+ plan has no difference steps:\n%s", plus.Plan)
	}
	if !(plus.Cost < sja.Cost) {
		t.Fatalf("difference pruning should save: SJA+ %v vs SJA %v", plus.Cost, sja.Cost)
	}
}

func TestChainOrderReordersPruningChain(t *testing.T) {
	// R2 confirms far more of the running set than R1; putting it first in
	// the chain shrinks what R1 receives.
	cards := [][]float64{
		{10, 10, 10},
		{50, 700, 200},
	}
	profiles := uniformProfiles(3, stats.SourceProfile{
		PerQuery: 1, PerItemSent: 2, PerItemRecv: 0.5, PerByteLoad: 10, Support: stats.SemijoinNative,
	})
	pr := mkProblem(t, 2, 3, cards, profiles)
	mkSketch := func(order []int) Sketch {
		choices := allSelectChoices(2, 3)
		for j := 0; j < 3; j++ {
			choices[1][j] = MethodSemijoin
		}
		return Sketch{
			Ordering:   []int{0, 1},
			Choices:    choices,
			DiffPrune:  true,
			ChainOrder: [][]int{nil, order},
			Class:      "test",
		}
	}
	indexOrder, err := BuildPlan(pr, mkSketch(nil))
	if err != nil {
		t.Fatal(err)
	}
	fracOrder, err := BuildPlan(pr, mkSketch([]int{1, 2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	estIdx, err := plan.EstimateCost(indexOrder, pr.Table)
	if err != nil {
		t.Fatal(err)
	}
	estFrac, err := plan.EstimateCost(fracOrder, pr.Table)
	if err != nil {
		t.Fatal(err)
	}
	if !(estFrac.Cost < estIdx.Cost) {
		t.Fatalf("frac-ordered chain %v not cheaper than index-ordered %v", estFrac.Cost, estIdx.Cost)
	}
	// The first semijoin step of the frac-ordered round must target R2.
	for _, s := range fracOrder.Steps {
		if s.Kind == plan.KindSemijoin {
			if s.Source != 1 {
				t.Fatalf("first chained semijoin targets source %d, want R2 (index 1):\n%s", s.Source, fracOrder)
			}
			break
		}
	}
	// SJA+ must pick the frac order automatically.
	plus, err := SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	if plus.Cost > estFrac.Cost+1e-9 {
		t.Fatalf("SJA+ cost %v worse than frac-ordered chain %v\nplan:\n%s", plus.Cost, estFrac.Cost, plus.Plan)
	}
}

func TestChainOrderIgnoresBogusEntries(t *testing.T) {
	pr := mkProblem(t, 2, 2, selectiveFirstCards(2, 2), uniformProfiles(2, defaultProfile()))
	choices := allSelectChoices(2, 2)
	choices[1][0], choices[1][1] = MethodSemijoin, MethodSemijoin
	sk := Sketch{
		Ordering:   []int{0, 1},
		Choices:    choices,
		DiffPrune:  true,
		ChainOrder: [][]int{nil, {7, -1, 1, 1, 0}}, // junk, dup, then valid
		Class:      "test",
	}
	p, err := BuildPlan(pr, sk)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	semis := 0
	for _, s := range p.Steps {
		if s.Kind == plan.KindSemijoin {
			semis++
		}
	}
	if semis != 2 {
		t.Fatalf("chain lost sources: %d semijoins, want 2\n%s", semis, p)
	}
}

func TestExhaustiveLimitGuard(t *testing.T) {
	pr := mkProblem(t, 5, 8, selectiveFirstCards(5, 8), uniformProfiles(8, defaultProfile()))
	if _, err := Exhaustive(pr); err == nil {
		t.Fatal("Exhaustive should refuse huge instances")
	}
}

func TestJoinOverUnionBlowup(t *testing.T) {
	pr := mkProblem(t, 3, 4, selectiveFirstCards(3, 4), uniformProfiles(4, defaultProfile()))
	rep, err := JoinOverUnion(pr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subqueries != 64 {
		t.Fatalf("Subqueries = %v, want n^m = 64", rep.Subqueries)
	}
	if rep.NaiveSourceQueries != 192 {
		t.Fatalf("NaiveSourceQueries = %v, want m·n^m = 192", rep.NaiveSourceQueries)
	}
	filter, err := Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.NaiveCost-filter.Cost*16) > 1e-6 {
		t.Fatalf("NaiveCost = %v, want filter cost × n^{m-1} = %v", rep.NaiveCost, filter.Cost*16)
	}
	if math.Abs(rep.CSE.Cost-filter.Cost) > 1e-9 {
		t.Fatalf("CSE cost = %v, want filter cost %v", rep.CSE.Cost, filter.Cost)
	}
}

func TestProblemValidate(t *testing.T) {
	pr := mkProblem(t, 2, 2, selectiveFirstCards(2, 2), uniformProfiles(2, defaultProfile()))
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *pr
	bad.Conds = nil
	if err := bad.Validate(); err == nil {
		t.Error("no conditions should fail")
	}
	bad = *pr
	bad.Sources = pr.Sources[:1]
	if err := bad.Validate(); err == nil {
		t.Error("table mismatch should fail")
	}
	bad = *pr
	bad.Table = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil table should fail")
	}
}

func TestBuildPlanValidatesSketch(t *testing.T) {
	pr := mkProblem(t, 2, 2, selectiveFirstCards(2, 2), uniformProfiles(2, defaultProfile()))
	bad := []Sketch{
		{Ordering: []int{0}, Choices: allSelectChoices(2, 2)},                          // short ordering
		{Ordering: []int{0, 0}, Choices: allSelectChoices(2, 2)},                       // not a permutation
		{Ordering: []int{0, 1}, Choices: allSelectChoices(1, 2)},                       // short choices
		{Ordering: []int{0, 1}, Choices: allSelectChoices(2, 1)},                       // narrow choices
		{Ordering: []int{0, 1}, Choices: allSelectChoices(2, 2), Loaded: []bool{true}}, // short loaded
	}
	for k, sk := range bad {
		if _, err := BuildPlan(pr, sk); err == nil {
			t.Errorf("sketch %d should fail", k)
		}
	}
}

func TestSingleConditionPlans(t *testing.T) {
	pr := mkProblem(t, 1, 3, selectiveFirstCards(1, 3), uniformProfiles(3, defaultProfile()))
	for name, algo := range map[string]func(*Problem) (Result, error){
		"filter": Filter, "sj": SJ, "sja": SJA, "greedy-sja": GreedySJA, "greedy-sj": GreedySJ, "sja+": SJAPlus,
	} {
		res, err := algo(pr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Plan.Result != "X1" {
			t.Fatalf("%s: result = %q", name, res.Plan.Result)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodSelect.String() != "sq" || MethodSemijoin.String() != "sjq" {
		t.Fatal("Method.String mismatch")
	}
}

func TestVarNames(t *testing.T) {
	if varName(1, 0) != "X11" || varName(3, 8) != "X39" {
		t.Fatal("varName single-digit mismatch")
	}
	if !strings.Contains(varName(2, 9), "_") {
		t.Fatal("varName should disambiguate two-digit source indices")
	}
	if loadName(2) != "F3" || roundName(4) != "X4" {
		t.Fatal("loadName/roundName mismatch")
	}
}

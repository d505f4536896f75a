package optimizer

import (
	"math/rand"
	"reflect"
	"testing"

	"fusionq/internal/plan"
	"fusionq/internal/racetest"
)

// TestSJAPlusIsSJAPostoptimized: SJA+ postoptimizes SJA's winning sketch
// without building SJA's plan, and comes out as postoptimizing SJA's result
// does, in plan text, cost and sketch; greedy SJA+ likewise with greedy
// SJA's. The problems are the hierarchy test's.
func TestSJAPlusIsSJAPostoptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		pr := randomProblem(t, rng)
		for _, tc := range []struct {
			class      string
			base, plus func(*Problem) (Result, error)
		}{
			{"sja+", SJA, SJAPlus},
			{"greedy-sja+", GreedySJA, GreedySJAPlus},
		} {
			base, err := tc.base(pr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := postoptimize(pr, tc.class, base.Sketch, base.Cost)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.plus(pr)
			if err != nil {
				t.Fatal(err)
			}
			if got.Plan.String() != want.Plan.String() || got.Cost != want.Cost || !reflect.DeepEqual(got.Sketch, want.Sketch) {
				t.Fatalf("trial %d: %s gave cost %v, sketch %+v, plan\n%s\npostoptimizing its base gives cost %v, sketch %+v, plan\n%s",
					trial, tc.class, got.Cost, got.Sketch, got.Plan, want.Cost, want.Sketch, want.Plan)
			}
		}
	}
}

// TestSJAPlusAllocs: SJA+ allocates what its search does and what its
// postoptimization does, nothing more: it builds no plan of SJA's. The
// search prices every ordering in the same two matrices, laid out with its
// orderings in two allocations, so what it allocates does not grow with
// the m! orderings it prices.
func TestSJAPlusAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	var searched []float64
	for _, m := range []int{3, 5} {
		n := 4
		cards := make([][]float64, m)
		for i := range cards {
			cards[i] = make([]float64, n)
			for j := range cards[i] {
				cards[i][j] = float64(10 * (i + j + 1))
			}
		}
		pr := mkProblem(t, m, n, cards, uniformProfiles(n, defaultProfile()))
		sk, cost, err := search(pr, "semijoin-adaptive", selectAll, perSource)
		if err != nil {
			t.Fatal(err)
		}
		s := testing.AllocsPerRun(20, func() { search(pr, "semijoin-adaptive", selectAll, perSource) })
		post := testing.AllocsPerRun(20, func() { postoptimize(pr, "sja+", sk, cost) })
		plus := testing.AllocsPerRun(20, func() { SJAPlus(pr) })
		if plus != s+post {
			t.Errorf("m=%d: SJA+ allocates %v times, its search %v and its postoptimization %v", m, plus, s, post)
		}
		t.Logf("m=%d: SJA+ %v allocations: search %v, postoptimization %v", m, plus, s, post)
		searched = append(searched, s)
	}
	if searched[0] != searched[1] || searched[0] > 2 {
		t.Errorf("the search allocates %v times over 3! orderings and %v over 5!; want the same, at most 2", searched[0], searched[1])
	}
}

// TestBuildPlanAllocs: a plan is built in the same few allocations
// whatever the number of sources and rounds, with or without loaded
// sources and difference pruning.
func TestBuildPlanAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	// sketch alternates selections, semijoins and Bloom semijoins over the
	// sources in every round after the first; pruned, it also loads every
	// third source and orders each chain backwards.
	sketch := func(m, n int, pruned bool) Sketch {
		sk := Sketch{Ordering: identityOrder(m), Choices: allSelectChoices(m, n)}
		for r := 1; r < m; r++ {
			for j := range sk.Choices[r] {
				sk.Choices[r][j] = Method((r + j) % 3)
			}
		}
		if pruned {
			sk.DiffPrune, sk.Loaded, sk.ChainOrder = true, make([]bool, n), make([][]int, m)
			for j := 0; j < n; j += 3 {
				sk.Loaded[j] = true
			}
			for r := 1; r < m; r++ {
				for j := n - 1; j >= 0; j-- {
					sk.ChainOrder[r] = append(sk.ChainOrder[r], j)
				}
			}
		}
		return sk
	}
	var want float64
	for _, size := range []struct{ m, n int }{{1, 2}, {3, 4}, {5, 12}, {4, 40}} {
		pr := mkProblem(t, size.m, size.n, selectiveFirstCards(size.m, size.n), uniformProfiles(size.n, defaultProfile()))
		for _, pruned := range []bool{false, true} {
			sk := sketch(size.m, size.n, pruned)
			p, err := BuildPlan(pr, sk)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Steps) != cap(p.Steps) {
				t.Errorf("m=%d n=%d pruned=%v: %d steps in an array of %d", size.m, size.n, pruned, len(p.Steps), cap(p.Steps))
			}
			got := testing.AllocsPerRun(20, func() { BuildPlan(pr, sk) })
			if want == 0 {
				want = got
				t.Logf("BuildPlan: %v allocations", got)
			}
			if got != want {
				t.Errorf("m=%d n=%d pruned=%v: BuildPlan allocates %v times, want %v as at m=1 n=2", size.m, size.n, pruned, got, want)
			}
		}
	}
}

// TestRoundSize: roundSize counts exactly the steps and inputs appendRound
// appends for each round of every sketch the golden problems' optimizers
// choose, and of each with every source loaded and its chains pruned.
func TestRoundSize(t *testing.T) {
	for k, pr := range goldenProblems(t) {
		for _, a := range Algorithms {
			res, err := a.Plan(pr)
			if err != nil {
				t.Fatal(err)
			}
			loadedAll := res.Sketch
			loadedAll.DiffPrune, loadedAll.Loaded = true, make([]bool, len(pr.Sources))
			for j := range loadedAll.Loaded {
				loadedAll.Loaded[j] = j%2 == 0
			}
			for _, sk := range []Sketch{res.Sketch, loadedAll} {
				var steps []plan.Step
				for r := 1; r <= len(pr.Conds); r++ {
					wantSteps, wantIns := roundSize(sk, r)
					before := len(steps)
					var rest []string
					steps, rest = appendRound(steps, make([]string, wantIns), sk, r)
					if got := len(steps) - before; got != wantSteps || len(rest) != 0 {
						t.Fatalf("problem %d, %s, round %d: %d steps reading %d inputs, roundSize says %d and %d",
							k, a.Name, r, got, wantIns-len(rest), wantSteps, wantIns)
					}
				}
			}
		}
	}
}

package optimizer

import (
	"math/rand"
	"reflect"
	"testing"

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
// search prices every ordering in the same two matrices, so what it
// allocates does not grow with the m! orderings it prices.
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
	if searched[0] != searched[1] {
		t.Errorf("the search allocates %v times over 3! orderings and %v over 5!; want the same", searched[0], searched[1])
	}
}

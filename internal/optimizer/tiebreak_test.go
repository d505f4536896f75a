package optimizer

import (
	"reflect"
	"testing"
)

// tieCards builds a cost table where condition 2 is far more selective than
// conditions 0 and 1, and conditions 0 and 1 are exactly symmetric. Every
// optimal ordering then starts with condition 2, and the two completions
// [2,0,1] and [2,1,0] have exactly equal float costs — a genuine tie.
func tieCards(n int) [][]float64 {
	cards := make([][]float64, 3)
	for i := range cards {
		cards[i] = make([]float64, n)
		for j := range cards[i] {
			if i == 2 {
				cards[i][j] = 5
			} else {
				cards[i][j] = 200
			}
		}
	}
	return cards
}

func TestLexLess(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{0, 1, 2}, []int{0, 2, 1}, true},
		{[]int{0, 2, 1}, []int{0, 1, 2}, false},
		{[]int{2, 0, 1}, []int{2, 1, 0}, true},
		{[]int{1, 2}, []int{1, 2}, false},
		{[]int{1}, []int{1, 0}, true},
	}
	for _, c := range cases {
		if got := lexLess(c.a, c.b); got != c.want {
			t.Errorf("lexLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestImproves(t *testing.T) {
	if !improves(1, []int{1, 0}, 2, []int{0, 1}) {
		t.Error("strictly cheaper plan must win regardless of ordering")
	}
	if improves(2, []int{0, 1}, 1, []int{1, 0}) {
		t.Error("strictly costlier plan must lose regardless of ordering")
	}
	if !improves(1, []int{0, 1}, 1, []int{1, 0}) {
		t.Error("on an exact tie the lex-smaller ordering must win")
	}
	if improves(1, []int{1, 0}, 1, []int{0, 1}) {
		t.Error("on an exact tie the lex-larger ordering must lose")
	}
	if improves(1, []int{0, 1}, 1, []int{0, 1}) {
		t.Error("a tie with the identical ordering must keep the incumbent")
	}
	if improves(1, []int{0, 1}, 1, nil) {
		t.Error("a nil incumbent ordering means no incumbent cost to tie with")
	}
}

// TestTieBreakLexicographicOrdering pins the deterministic tie-break on
// every enumerating optimizer. Conditions 0 and 1 are exactly symmetric, so
// [2,0,1] and [2,1,0] tie on cost; the swap-based permutation enumeration
// visits [2,1,0] first, so any first-wins implementation would keep it. The
// tie-break must instead select the lexicographically smaller [2,0,1],
// making the chosen plan a function of the problem alone.
func TestTieBreakLexicographicOrdering(t *testing.T) {
	n := 2
	pr := mkProblem(t, 3, n, tieCards(n), uniformProfiles(n, defaultProfile()))

	// Prove this is a genuine exact tie, not merely a near-tie.
	_, costA := costOrdering(pr, []int{2, 0, 1}, selectAll, perSource)
	_, costB := costOrdering(pr, []int{2, 1, 0}, selectAll, perSource)
	if costA != costB {
		t.Fatalf("expected an exact cost tie, got %v vs %v", costA, costB)
	}

	want := []int{2, 0, 1}
	for _, tc := range []struct {
		name string
		run  func(*Problem) (Result, error)
	}{
		{"SJ", SJ},
		{"SJA", SJA},
		{"ResponseTimeSJA", ResponseTimeSJA},
		{"Exhaustive", Exhaustive},
	} {
		res, err := tc.run(pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Sketch.Ordering, want) {
			t.Errorf("%s chose ordering %v, want lex-smallest tied ordering %v",
				tc.name, res.Sketch.Ordering, want)
		}
	}
}

// TestTieBreakFullySymmetric: with all conditions identical every ordering
// ties, so the winner must be the identity permutation.
func TestTieBreakFullySymmetric(t *testing.T) {
	n := 3
	cards := make([][]float64, 3)
	for i := range cards {
		cards[i] = []float64{50, 50, 50}
	}
	pr := mkProblem(t, 3, n, cards, uniformProfiles(n, defaultProfile()))
	want := []int{0, 1, 2}
	for _, tc := range []struct {
		name string
		run  func(*Problem) (Result, error)
	}{
		{"SJ", SJ},
		{"SJA", SJA},
		{"Exhaustive", Exhaustive},
	} {
		res, err := tc.run(pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Sketch.Ordering, want) {
			t.Errorf("%s chose ordering %v, want identity %v under total symmetry",
				tc.name, res.Sketch.Ordering, want)
		}
	}
}

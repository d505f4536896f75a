package optimizer

import (
	"math"
	"reflect"
	"testing"

	"fusionq/internal/stats"
)

var inf = math.Inf(1)

// handTable is a cost table written out cell by cell: sq[i][j] and card[i][j]
// as given, semijoins costing sjFixed[i][j] + sjPerItem·|X|, no Bloom
// semijoins.
func handTable(sq, card, sjFixed [][]float64, sjPerItem, domain float64) *stats.CostTable {
	m, n := len(sq), len(sq[0])
	fill := func(v float64) [][]float64 {
		out := make([][]float64, m)
		for i := range out {
			out[i] = make([]float64, n)
			for j := range out[i] {
				out[i][j] = v
			}
		}
		return out
	}
	return &stats.CostTable{
		SourceNames: make([]string, n), Domain: domain,
		Sq: sq, Card: card, SjFixed: sjFixed, SjPerItem: fill(sjPerItem),
		SjbFixed: fill(inf), SjbPerItem: fill(0), Frac: fill(0.1),
	}
}

func TestHeadCondition(t *testing.T) {
	flat := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	for _, tc := range []struct {
		name     string
		sq, card [][]float64
		domain   float64
		want     int
	}{
		{"smallest running set wins whatever its round costs",
			[][]float64{{1, 1}, {90, 90}, {1, 1}}, [][]float64{{40, 40}, {5, 5}, {30, 30}}, 1000, 1},
		{"equal sets: the cheaper round",
			[][]float64{{9, 9}, {2, 2}, {5, 5}}, [][]float64{{10, 10}, {10, 10}, {10, 10}}, 1000, 1},
		{"equal sets and rounds: the lower index",
			flat, [][]float64{{10, 10}, {10, 10}, {10, 10}}, 1000, 0},
		{"sets capped at the domain tie there",
			[][]float64{{9, 9}, {2, 2}, {5, 5}}, [][]float64{{80, 80}, {60, 60}, {70, 70}}, 100, 1},
		{"one condition",
			[][]float64{{3, 4}}, [][]float64{{10, 20}}, 1000, 0},
	} {
		table := handTable(tc.sq, tc.card, tc.sq, 0, tc.domain)
		if got := HeadCondition(table); got != tc.want {
			t.Errorf("%s: HeadCondition = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestNextRound(t *testing.T) {
	const sel, sj = MethodSelect, MethodSemijoin
	card := [][]float64{{10, 10}, {10, 10}, {10, 10}}
	for _, tc := range []struct {
		name        string
		sq, sjFixed [][]float64
		sjPerItem   float64
		placed      []bool
		x           float64
		want        int
		wantRow     []Method
		wantCost    float64
	}{
		{"cheapest round, each source by its own cheapest method",
			[][]float64{{1, 1}, {6, 2}, {9, 9}}, [][]float64{{1, 1}, {1, 1}, {8, 8}}, 1,
			[]bool{true, false, false}, 3, 1, []Method{sj, sel}, 4 + 2},
		{"a bigger running set turns the semijoins into selections",
			[][]float64{{1, 1}, {6, 2}, {9, 9}}, [][]float64{{1, 1}, {1, 1}, {8, 8}}, 1,
			[]bool{true, false, false}, 50, 1, []Method{sel, sel}, 6 + 2},
		{"equal rounds: the lower index",
			[][]float64{{1, 1}, {5, 5}, {5, 5}}, [][]float64{{9, 9}, {9, 9}, {9, 9}}, 0,
			[]bool{true, false, false}, 7, 1, []Method{sel, sel}, 10},
		{"a semijoin wins its tie with a selection",
			[][]float64{{1, 1}, {5, 5}}, [][]float64{{1, 1}, {2, 2}}, 1,
			[]bool{true, false}, 3, 1, []Method{sj, sj}, 10},
		{"a source that cannot take a semijoin is asked a selection",
			[][]float64{{1, 1}, {50, 50}}, [][]float64{{1, 1}, {1, inf}}, 1,
			[]bool{true, false}, 3, 1, []Method{sj, sel}, 4 + 50},
		{"one condition left",
			[][]float64{{1, 1}, {2, 2}, {3, 3}}, [][]float64{{9, 9}, {9, 9}, {9, 9}}, 0,
			[]bool{true, true, false}, 4, 2, []Method{sel, sel}, 6},
		{"every condition placed",
			[][]float64{{1, 1}, {2, 2}}, [][]float64{{9, 9}, {9, 9}}, 0,
			[]bool{true, true}, 4, -1, nil, inf},
	} {
		table := handTable(tc.sq, card[:len(tc.sq)], tc.sjFixed, tc.sjPerItem, 1000)
		got, row, cost := NextRound(table, tc.placed, tc.x)
		if got != tc.want || !reflect.DeepEqual(row, tc.wantRow) || cost != tc.wantCost {
			t.Errorf("%s: NextRound = (%d, %v, %v), want (%d, %v, %v)", tc.name, got, row, cost, tc.want, tc.wantRow, tc.wantCost)
		}
	}
}

// TestCheapestTieRules pins the three-method comparison every rule shares.
func TestCheapestTieRules(t *testing.T) {
	for _, tc := range []struct {
		sel, sj, sjb float64
		want         Method
	}{
		{5, 5, inf, MethodSemijoin}, // semijoin over selection
		{9, 5, 5, MethodSemijoin},   // exact over Bloom
		{5, 9, 5, MethodSelect},     // Bloom must be strictly cheaper
		{5, 9, 4, MethodBloom},
		{5, inf, inf, MethodSelect},
	} {
		if got, _ := cheapest(tc.sel, tc.sj, tc.sjb); got != tc.want {
			t.Errorf("cheapest(%v, %v, %v) = %v, want %v", tc.sel, tc.sj, tc.sjb, got, tc.want)
		}
	}
}

// Package optimizer implements the fusion-query optimization algorithms of
// the paper: FILTER, SJ and SJA (Section 3), their greedy O(mn) variants
// (referenced from the extended version [24]), the SJA+ postoptimizer
// (Section 4: semijoin-set pruning with set difference, and loading entire
// sources), an exhaustive oracle for small instances, and the Section 5
// join-over-union baseline.
//
// All algorithms consume a stats.CostTable, which provides the cost
// functions sq_cost and sjq_cost in O(1) per invocation, and produce
// plan.Plan values in the canonical round structure of Figure 2.
package optimizer

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/plan"
	"fusionq/internal/stats"
)

// Problem is one fusion-query optimization instance: the conditions
// c_1..c_m, the sources R_1..R_n, and the cost table estimating every
// source-query cost.
type Problem struct {
	Conds   []cond.Cond
	Sources []string
	Table   *stats.CostTable
}

// Validate checks the problem is well formed and consistent with its table.
func (p *Problem) Validate() error {
	if len(p.Conds) == 0 {
		return fmt.Errorf("optimizer: no conditions")
	}
	if len(p.Sources) == 0 {
		return fmt.Errorf("optimizer: no sources")
	}
	if p.Table == nil {
		return fmt.Errorf("optimizer: no cost table")
	}
	if p.Table.M() != len(p.Conds) || p.Table.N() != len(p.Sources) {
		return fmt.Errorf("optimizer: table is %dx%d but problem is %dx%d",
			p.Table.M(), p.Table.N(), len(p.Conds), len(p.Sources))
	}
	return nil
}

// Method is the per-(condition, source) evaluation choice of a
// semijoin-adaptive plan.
type Method int

const (
	// MethodSelect evaluates the condition at the source with sq.
	MethodSelect Method = iota
	// MethodSemijoin evaluates it with sjq using the running set.
	MethodSemijoin
	// MethodBloom evaluates it with a Bloom-filter semijoin (the Bloomjoin
	// extension): the source receives a filter of the running set instead
	// of the set itself.
	MethodBloom
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodSemijoin:
		return "sjq"
	case MethodBloom:
		return "sjq-bloom"
	default:
		return "sq"
	}
}

// Sketch is the structured description of a round-shaped plan: a condition
// ordering plus, for each round after the first, a per-source method choice.
// All plan classes of the paper are sketches:
//
//	filter plans:            every choice is MethodSelect
//	semijoin plans:          each round is all-select or all-semijoin
//	semijoin-adaptive plans: choices vary freely per source
//
// SJA+ additionally marks sources to be loaded in full and enables
// difference pruning of semijoin sets.
type Sketch struct {
	// Ordering lists condition indices in processing order (o_1..o_m).
	Ordering []int
	// Choices[r][j] is the method for round r (0-based over Ordering) at
	// source j. Choices[0] is ignored: the first round is always evaluated
	// with selection queries (Section 2.5).
	Choices [][]Method
	// Loaded[j] marks sources whose entire contents the plan loads with lq,
	// evaluating their conditions locally (Section 4).
	Loaded []bool
	// DiffPrune enables pruning of semijoin sets with set difference
	// (Section 4).
	DiffPrune bool
	// ChainOrder, when non-nil, gives for each round the preferred order
	// of the remote semijoin sources in the difference-pruning chain
	// (sources expected to confirm more items go first, so later sources
	// receive smaller sets). Entries are source indices; sources missing
	// from a round's list follow in index order. Ignored without
	// DiffPrune.
	ChainOrder [][]int
	// Class labels the plan class for display.
	Class string
}

// Result is an optimizer's output: the plan, the algorithm's own cost
// bookkeeping (which matches plan.EstimateCost on the emitted plan), and
// the winning sketch.
type Result struct {
	Plan   *plan.Plan
	Cost   float64
	Sketch Sketch
}

// nextPermutation rearranges ord into the permutation that follows it in
// lexicographic order and reports whether there is one: from the identity,
// it visits every permutation of 0..len(ord)-1 once, in place.
func nextPermutation(ord []int) bool {
	i := len(ord) - 2
	for i >= 0 && ord[i] >= ord[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(ord) - 1
	for ord[j] <= ord[i] {
		j--
	}
	ord[i], ord[j] = ord[j], ord[i]
	slices.Reverse(ord[i+1:])
	return true
}

// lexLess reports whether ordering a precedes ordering b lexicographically.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// improves reports whether a candidate plan (cost, ord) should replace the
// incumbent best (bestCost, bestOrd). Strictly cheaper always wins; an exact
// cost tie falls to the lexicographically smaller condition ordering. The
// deterministic tie-break makes every enumerating optimizer's choice a
// function of the problem alone, independent of the order orderings are
// visited in — equal-cost plans cannot flip with a refactor of the
// enumeration. Candidates visited earlier under the same ordering (e.g. the
// method masks of the exhaustive search) keep first-wins behavior, which is
// deterministic already.
func improves(cost float64, ord []int, bestCost float64, bestOrd []int) bool {
	if cost != bestCost {
		return cost < bestCost
	}
	return bestOrd != nil && lexLess(ord, bestOrd)
}

// A plan's variables are named after the paper's figures: X_{ij} for
// condition i's result at source j, X_i for the running set, F_j for source
// j's loaded contents, S_i for round i's selection results, D_i and D_{i_k}
// for its pruned running set, and T_{ij} for a loaded source's local
// selection before it is pruned. The names of plans of up to namedRounds
// rounds over up to namedSources sources are made once, into one table, so
// that building a plan allocates no name; a larger plan's further names are
// made as it is built.
const namedRounds, namedSources = 16, 64

// nameTable holds the names of plans within its bounds: x[r-1][j] and
// t[r-1][j] are X_{rj} and T_{rj}, d[r-1][k] is round r's k-th pruned set
// (D_r when k is 0), round[r] and union[r] are X_r and S_r, and load[j] is
// F_{j+1}.
type nameTable struct {
	x, t, d      [namedRounds][namedSources]string
	round, union [namedRounds + 1]string
	load         [namedSources]string
}

// names is the table, made on first use.
var names = sync.OnceValue(func() *nameTable {
	nt := new(nameTable)
	for r := 1; r <= namedRounds; r++ {
		nt.round[r], nt.union[r] = formatRound("X", r), formatRound("S", r)
		for j := 0; j < namedSources; j++ {
			nt.x[r-1][j], nt.t[r-1][j] = formatVar("X", r, j), formatVar("T", r, j)
			nt.d[r-1][j] = formatDiff(r, j)
		}
	}
	for j := 0; j < namedSources; j++ {
		nt.load[j] = formatRound("F", j+1)
	}
	return nt
})

func inTable(round, src int) bool {
	return round >= 1 && round <= namedRounds && src >= 0 && src < namedSources
}

// varName names X_{ij}, the result of round's condition at source src.
func varName(round, src int) string {
	if inTable(round, src) {
		return names().x[round-1][src]
	}
	return formatVar("X", round, src)
}

// localName names T_{ij}, a loaded source's local selection before it is
// pruned.
func localName(round, src int) string {
	if inTable(round, src) {
		return names().t[round-1][src]
	}
	return formatVar("T", round, src)
}

// diffName names round's k-th pruned running set: D_r for k = 0, D_{r_k}
// after the chain's k-th semijoin.
func diffName(round, k int) string {
	if inTable(round, k) {
		return names().d[round-1][k]
	}
	return formatDiff(round, k)
}

// roundName names the running set X_r.
func roundName(round int) string {
	if inTable(round, 0) {
		return names().round[round]
	}
	return formatRound("X", round)
}

// unionName names S_r, round's selection results united.
func unionName(round int) string {
	if inTable(round, 0) {
		return names().union[round]
	}
	return formatRound("S", round)
}

// loadName names F_j, source src's loaded contents.
func loadName(src int) string {
	if src >= 0 && src < namedSources {
		return names().load[src]
	}
	return formatRound("F", src+1)
}

// formatVar renders a per-source variable, matching the paper's figures for
// single-digit indices and remaining unambiguous beyond.
func formatVar(prefix string, round, src int) string {
	if round <= 9 && src < 9 {
		return prefix + strconv.Itoa(round) + strconv.Itoa(src+1)
	}
	return prefix + strconv.Itoa(round) + "_" + strconv.Itoa(src+1)
}

func formatRound(prefix string, i int) string { return prefix + strconv.Itoa(i) }

func formatDiff(round, k int) string {
	if k == 0 {
		return "D" + strconv.Itoa(round)
	}
	return "D" + strconv.Itoa(round) + "_" + strconv.Itoa(k)
}

// allSelectChoices builds an m×n all-MethodSelect matrix, its rows on one
// backing array.
func allSelectChoices(m, n int) [][]Method {
	out, cells := make([][]Method, m), make([]Method, m*n)
	for i := range out {
		out[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// identityOrder returns [0, 1, ..., m-1].
func identityOrder(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

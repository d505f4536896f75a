package optimizer

import (
	"math"
	"unsafe"

	"fusionq/internal/stats"
)

// This file is the one plan-space search of the package. Every algorithm
// that decides rounds by cost is an ordering (all m!, one heuristic, one
// given, or grown condition by condition) priced by a rule.

// rule decides one round after the first: it fills row[j] with the method
// that evaluates condition ci at source j against a running set of x items,
// and returns acc, the plan cost so far, with the round added to it. A rule
// adds in the order its figure does (per source for perSource, per round for
// uniform): float addition does not associate, and a cost regrouped differs
// in the last bit, which is enough to flip a tie between orderings.
type rule func(t *stats.CostTable, ci int, x float64, row []Method, acc float64) float64

// cheapest holds the tie rules of the three-method comparison: a semijoin
// wins a tie with a selection (the ≤ of Figures 3 and 4), and an exact
// semijoin wins a tie with a Bloom semijoin.
func cheapest(sel, sj, sjb float64) (Method, float64) {
	method, cost := MethodSelect, sel
	if sj <= cost {
		method, cost = MethodSemijoin, sj
	}
	if sjb < cost {
		method, cost = MethodBloom, sjb
	}
	return method, cost
}

// uniform is Figure 3's loop B body: every source gets the same method, the
// one whose total over the sources is cheapest. The all-or-nothing choice
// is what characterizes semijoin plans.
func uniform(t *stats.CostTable, ci int, x float64, row []Method, acc float64) float64 {
	sel, sj, sjb := 0.0, 0.0, 0.0
	for j := range row {
		sel += t.SelectCost(ci, j)
		sj += t.SemijoinCost(ci, j, x)
		sjb += t.BloomSemijoinCost(ci, j, x)
	}
	method, cost := cheapest(sel, sj, sjb)
	for j := range row {
		row[j] = method
	}
	return acc + cost
}

// perSource is Figure 4's source loop: each source gets its own cheapest
// method. The decisions are independent given x, which is why one pass
// finds the best semijoin-adaptive plan of an ordering.
func perSource(t *stats.CostTable, ci int, x float64, row []Method, acc float64) float64 {
	for j := range row {
		method, cost := cheapest(t.SelectCost(ci, j), t.SemijoinCost(ci, j, x), t.BloomSemijoinCost(ci, j, x))
		row[j] = method
		acc += cost
	}
	return acc
}

// slowestSource is perSource under the Section 6 response-time objective:
// the semijoin candidate is priced by SemijoinResponseCost, so an emulated
// semijoin whose bindings fan out over k connections competes with its
// per-lane critical path, and the round costs what its slowest source does.
func slowestSource(t *stats.CostTable, ci int, x float64, row []Method, acc float64) float64 {
	slowest := 0.0
	for j := range row {
		method, cost := cheapest(t.SelectCost(ci, j), t.SemijoinResponseCost(ci, j, x), t.BloomSemijoinCost(ci, j, x))
		row[j] = method
		if cost > slowest {
			slowest = cost
		}
	}
	return acc + slowest
}

// allSelect is FILTER's round: a selection at every source.
func allSelect(t *stats.CostTable, ci int, _ float64, row []Method, acc float64) float64 {
	for j := range row {
		row[j] = MethodSelect
		acc += t.SelectCost(ci, j)
	}
	return acc
}

// selectAll prices a first round under the total-work objective: the round
// is n selection queries (Section 2.5) and costs their sum.
func selectAll(t *stats.CostTable, ci int) float64 {
	cost := 0.0
	for j := 0; j < t.N(); j++ {
		cost += t.SelectCost(ci, j)
	}
	return cost
}

// slowestSelect prices a first round under the response-time objective: the
// n selections run side by side and cost the slowest.
func slowestSelect(t *stats.CostTable, ci int) float64 {
	slowest := 0.0
	for j := 0; j < t.N(); j++ {
		if cost := t.SelectCost(ci, j); cost > slowest {
			slowest = cost
		}
	}
	return slowest
}

// costOrdering prices one condition ordering: first prices round one, decide
// every later round against the estimated running set the rounds before it
// leave. It returns the method matrix and the plan cost.
func costOrdering(pr *Problem, ord []int, first func(*stats.CostTable, int) float64, decide rule) ([][]Method, float64) {
	choices := allSelectChoices(len(ord), len(pr.Sources))
	return choices, priceInto(pr.Table, ord, first, decide, choices)
}

// priceInto is costOrdering deciding into choices, a matrix from
// allSelectChoices of the problem's size: every rule writes every cell of
// the rows after the first, and nothing writes the first, so one matrix
// can price ordering after ordering.
func priceInto(t *stats.CostTable, ord []int, first func(*stats.CostTable, int) float64, decide rule, choices [][]Method) float64 {
	cost := first(t, ord[0])
	x := t.FirstRoundCard(ord[0])
	for r := 1; r < len(ord); r++ { // loop B
		cost = decide(t, ord[r], x, choices[r], cost)
		x = t.RoundCard(ord[r], x)
	}
	return cost
}

// search is loop A of Figures 3 and 4: it prices all m! orderings and keeps
// the cheapest, exact ties falling to the lexicographically smaller ordering
// (improves). It returns the winner's sketch and cost and builds no plan.
// Each ordering is priced into one of two matrices while the other holds
// the best so far; a winner's matrix becomes the best, and the old best's
// the next one priced into. Both matrices and two orderings, the one priced
// and the best so far, are pieces of one array (a Method is an int), and the
// matrices' rows of another: a search allocates twice at any m and n.
func search(pr *Problem, class string, first func(*stats.CostTable, int) float64, decide rule) (Sketch, float64, error) {
	if err := pr.Validate(); err != nil {
		return Sketch{}, 0, err
	}
	m, n := len(pr.Conds), len(pr.Sources)
	cells, rows := make([]Method, 2*m*n+2*m), make([][]Method, 2*m)
	for i := range rows {
		rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	next, best := rows[:m:m], rows[m:]
	ords := unsafe.Slice((*int)(unsafe.Pointer(&cells[2*m*n])), 2*m)
	ord, kept := ords[:m:m], ords[m:]
	for i := range ord {
		ord[i] = i
	}
	var bestOrd []int // nil until an ordering improves on no plan at all
	bestCost := math.Inf(1)
	for more := true; more; more = nextPermutation(ord) {
		cost := priceInto(pr.Table, ord, first, decide, next)
		if improves(cost, ord, bestCost, bestOrd) {
			bestCost, bestOrd = cost, kept
			copy(bestOrd, ord)
			next, best = best, next
		}
	}
	return Sketch{Ordering: bestOrd, Choices: best, Class: class}, bestCost, nil
}

// searched builds the plan of search's winner.
func searched(pr *Problem, class string, first func(*stats.CostTable, int) float64, decide rule) (Result, error) {
	sk, cost, err := search(pr, class, first, decide)
	if err != nil {
		return Result{}, err
	}
	return built(pr, sk, cost)
}

// fixed prices the one ordering ord, which the result keeps.
func fixed(pr *Problem, class string, ord []int, decide rule) (Result, error) {
	choices, cost := costOrdering(pr, ord, selectAll, decide)
	return built(pr, Sketch{Ordering: ord, Choices: choices, Class: class}, cost)
}

// built materializes a priced sketch.
func built(pr *Problem, sk Sketch, cost float64) (Result, error) {
	p, err := BuildPlan(pr, sk)
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: p, Cost: cost, Sketch: sk}, nil
}

// HeadCondition picks the condition an incremental plan evaluates first:
// the one whose selections leave the smallest running set, the cheaper
// round breaking a tie and the lower index a tie of both.
func HeadCondition(t *stats.CostTable) int {
	head, headCost, headCard := -1, math.Inf(1), math.Inf(1)
	for ci := 0; ci < t.M(); ci++ {
		cost, card := selectAll(t, ci), t.FirstRoundCard(ci)
		if card < headCard || (card == headCard && cost < headCost) {
			head, headCost, headCard = ci, cost, card
		}
	}
	return head
}

// NextRound is the incremental round decision: of the conditions not yet
// placed, the one whose round, with each source's method chosen by
// perSource, adds the least cost against a running set of x items; a tie
// falls to the lower index. It returns the condition, its per-source
// methods and the round's cost, or -1 when every condition is placed.
// GreedyAdaptiveSJA calls it with x estimated, the executor running an
// Adaptive plan with x measured.
func NextRound(t *stats.CostTable, placed []bool, x float64) (int, []Method, float64) {
	next, nextCost := -1, math.Inf(1)
	var nextRow []Method
	for ci, done := range placed {
		if done {
			continue
		}
		row := make([]Method, t.N())
		if cost := perSource(t, ci, x, row, 0); next < 0 || cost < nextCost {
			next, nextRow, nextCost = ci, row, cost
		}
	}
	return next, nextRow, nextCost
}

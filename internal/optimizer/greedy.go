package optimizer

import "sort"

// greedyOrdering picks the condition processing order without enumerating
// permutations: most selective condition first, i.e. ascending estimated
// first-round cardinality (ties broken by condition index for determinism).
// With a selective head condition the running semijoin set is small from
// round two on, which is what makes semijoin rounds cheap; under monotone
// cost models this ordering is optimal, and it is the O(m log m) heart of
// the greedy O(mn) variants referenced from the extended version [24].
func greedyOrdering(pr *Problem) []int {
	m := len(pr.Conds)
	ord := identityOrder(m)
	card := make([]float64, m)
	for i := 0; i < m; i++ {
		card[i] = pr.Table.FirstRoundCard(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		if card[ord[a]] != card[ord[b]] {
			return card[ord[a]] < card[ord[b]]
		}
		return ord[a] < ord[b]
	})
	return ord
}

// GreedySJA is the O(mn) greedy variant of SJA: it fixes the condition
// ordering heuristically (most selective first) and runs the per-source
// decision loop once instead of m! times. It can be suboptimal under the
// fully general cost model but is within a small factor in practice
// (experiment E5).
func GreedySJA(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return fixed(pr, "greedy-semijoin-adaptive", greedyOrdering(pr), perSource)
}

// GreedySJ is the O(mn) greedy variant of SJ: the same heuristic ordering
// with SJ's all-or-nothing per-condition choice.
func GreedySJ(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return fixed(pr, "greedy-semijoin", greedyOrdering(pr), uniform)
}

// GreedyAdaptiveSJA is the incremental O(m²n) greedy: instead of fixing the
// whole ordering up front from first-round cardinalities, it grows the
// ordering one condition at a time, at each step picking the unplaced
// condition whose evaluation — with per-source method choices against the
// current running-set estimate — adds the least cost (NextRound). It
// dominates the sort-based greedy whenever marginal costs diverge from
// head-round selectivity, at a still-polynomial price.
func GreedyAdaptiveSJA(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	m, t := len(pr.Conds), pr.Table
	placed := make([]bool, m)
	sk := Sketch{Choices: make([][]Method, m), Class: "greedy-adaptive-sja"}

	head := HeadCondition(t)
	placed[head] = true
	sk.Ordering = append(sk.Ordering, head)
	sk.Choices[0] = make([]Method, len(pr.Sources))
	cost, x := selectAll(t, head), t.FirstRoundCard(head)
	for r := 1; r < m; r++ {
		next, row, roundCost := NextRound(t, placed, x)
		placed[next] = true
		sk.Ordering = append(sk.Ordering, next)
		sk.Choices[r] = row
		cost += roundCost
		x = t.RoundCard(next, x)
	}
	return built(pr, sk, cost)
}

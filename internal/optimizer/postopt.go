package optimizer

import (
	"fmt"
	"slices"

	"fusionq/internal/plan"
)

// SJAPlus implements the SJA+ algorithm (Section 4.1). It first runs SJA's
// search for the best semijoin-adaptive plan, taking the winning sketch and
// its cost without building that plan, then postoptimizes it:
//
//  1. it prunes the semijoin sets of all semijoin queries with the set
//     difference operation, so a source only receives the items not already
//     confirmed by the round's earlier answers;
//  2. it considers, for each source, replacing all of that source's queries
//     with a single lq (load the entire source) plus free local computation
//     at the mediator, committing the replacement when it is cheaper.
//
// The postoptimization phase costs O(mn) on top of SJA, preserving SJA's
// overall O((m!)·m·n). The resulting plans use operations outside the
// simple-plan space (difference, lq, local selection), which is exactly the
// paper's point: SJA+ is a cheap local search in a larger space.
func SJAPlus(pr *Problem) (Result, error) {
	base, baseCost, err := search(pr, "semijoin-adaptive", selectAll, perSource)
	if err != nil {
		return Result{}, err
	}
	return postoptimize(pr, "sja+", base, baseCost)
}

// GreedySJAPlus applies the same postoptimization to the greedy SJA
// variant, keeping the whole pipeline at O(mn).
func GreedySJAPlus(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	ord := greedyOrdering(pr)
	choices, baseCost := costOrdering(pr, ord, selectAll, perSource)
	return postoptimize(pr, "greedy-sja+", Sketch{Ordering: ord, Choices: choices}, baseCost)
}

// postoptimize applies difference pruning and source loading to a
// round-structured sketch priced at baseCost, whose plan it need not
// build, and returns the improved plan of the class given. Plan costs here
// come from the static estimator, the shared arbiter for plans that leave
// the simple-plan space.
func postoptimize(pr *Problem, class string, base Sketch, baseCost float64) (Result, error) {
	sk := base
	sk.Class = class
	sk.DiffPrune = true
	sk.Loaded = make([]bool, len(pr.Sources))
	sk.ChainOrder = chainOrderByFrac(pr, sk)

	current, cost, err := buildAndEstimate(pr, sk)
	if err != nil {
		return Result{}, err
	}

	// Loading pass: for each source, compare the total charged cost of its
	// queries in the current plan against lq(R_j); commit loads greedily.
	// One pass over sources, O(m) per source, matching the paper's O(mn)
	// postoptimization bound.
	for j := range pr.Sources {
		spent := sourceSpend(current.p, current.stepCosts, j)
		if spent > pr.Table.LoadCost(j) {
			sk.Loaded[j] = true
			current, cost, err = buildAndEstimate(pr, sk)
			if err != nil {
				return Result{}, err
			}
		}
	}

	// Postoptimization must never hurt: fall back to the SJA plan if the
	// rewritten plan is not cheaper (possible when pruning gains are zero
	// and the estimator's diff bookkeeping is conservative).
	if cost > baseCost {
		sk = base
		sk.Class = class
		current, cost, err = buildAndEstimate(pr, sk)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Plan: current.p, Cost: cost, Sketch: sk}, nil
}

type builtPlan struct {
	p         *plan.Plan
	stepCosts []float64
}

func buildAndEstimate(pr *Problem, sk Sketch) (builtPlan, float64, error) {
	p, err := BuildPlan(pr, sk)
	if err != nil {
		return builtPlan{}, 0, err
	}
	est, err := plan.EstimateCost(p, pr.Table)
	if err != nil {
		return builtPlan{}, 0, fmt.Errorf("optimizer: estimating postoptimized plan: %w", err)
	}
	return builtPlan{p: p, stepCosts: est.StepCosts}, est.Cost, nil
}

// chainOrderByFrac sequences each round's difference-pruning chain so the
// sources expected to confirm the largest fraction of the running set come
// first — they shrink the set the most for everyone after them. Ordering
// the chain is free at optimization time (O(mn log n)) and never increases
// the estimated cost.
func chainOrderByFrac(pr *Problem, sk Sketch) [][]int {
	m, n := len(pr.Conds), len(pr.Sources)
	// Every round's order is a piece of one array.
	out, cells := make([][]int, m), make([]int, 0, (m-1)*n)
	for r := 1; r < m; r++ {
		start := len(cells)
		for j := 0; j < n; j++ {
			if sk.semiRole(r+1, j) {
				cells = append(cells, j)
			}
		}
		ord := cells[start:len(cells):len(cells)]
		frac := pr.Table.Frac[sk.Ordering[r]]
		slices.SortStableFunc(ord, func(a, b int) int {
			switch {
			case frac[a] > frac[b]:
				return -1
			case frac[a] < frac[b]:
				return 1
			}
			return 0
		})
		out[r] = ord
	}
	return out
}

// sourceSpend sums the charged costs of the remote queries the plan issues
// to source j.
func sourceSpend(p *plan.Plan, stepCosts []float64, j int) float64 {
	total := 0.0
	for k, s := range p.Steps {
		if s.IsSourceQuery() && s.Source == j && s.Kind != plan.KindLoad {
			total += stepCosts[k]
		}
	}
	return total
}

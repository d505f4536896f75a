package exec

import (
	"context"
	"fmt"
	"math"

	"fusionq/internal/optimizer"
	"fusionq/internal/set"
)

// RunJoinOverUnion executes a fusion query the way the Section 5
// resolution-based systems do: distribute the m-way join over the n-way
// union into n^m SPJ subqueries, evaluate each subquery with per-position
// selection queries, and union the subquery answers. With memoize=false
// every subquery issues its own selections — the m·n^m blowup the paper
// warns about; with memoize=true the mediator caches sq(c_i, R_j) results,
// which is exactly the common-subexpression elimination that collapses the
// strategy to filter-plan cost.
//
// maxSubqueries guards against accidental n^m explosions; 0 means the
// default of 100000.
func (e *Executor) RunJoinOverUnion(ctx context.Context, pr *optimizer.Problem, memoize bool, maxSubqueries int) (*Result, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := e.checkRoster("problem", pr.Sources); err != nil {
		return nil, err
	}
	m, n := len(pr.Conds), len(pr.Sources)
	if maxSubqueries <= 0 {
		maxSubqueries = 100000
	}
	if total := math.Pow(float64(n), float64(m)); total > float64(maxSubqueries) {
		return nil, fmt.Errorf("exec: join-over-union would expand to %.0f subqueries (limit %d)", total, maxSubqueries)
	}

	res := &Result{Vars: map[string]set.Set{}, FailedStep: -1}
	memo := map[[2]int]set.Set{}
	fetch := func(ci, j int) (set.Set, error) {
		key := [2]int{ci, j}
		if memoize {
			if s, ok := memo[key]; ok {
				return s, nil
			}
		}
		out, err := e.Sources[j].Select(ctx, pr.Conds[ci])
		res.SourceQueries++
		if err != nil {
			return set.Set{}, err
		}
		if memoize {
			memo[key] = out
		}
		return out, nil
	}

	// Enumerate source assignments (j_1..j_m) in odometer order; each
	// subquery's answer is the intersection of its per-position selection
	// results.
	answer := set.Set{}
	assign := make([]int, m)
	for {
		sub := set.Set{}
		for i := 0; i < m; i++ {
			part, err := fetch(i, assign[i])
			if err != nil {
				return res, err
			}
			if i == 0 {
				sub = part
			} else {
				sub = sub.Intersect(part)
			}
			if sub.IsEmpty() {
				// The remaining positions cannot resurrect this subquery,
				// but the naive strategy still issues their selections.
				if !memoize {
					for k := i + 1; k < m; k++ {
						if _, err := fetch(k, assign[k]); err != nil {
							return res, err
						}
					}
				}
				break
			}
		}
		answer = answer.Union(sub)

		// Advance the odometer.
		pos := m - 1
		for ; pos >= 0; pos-- {
			assign[pos]++
			if assign[pos] < n {
				break
			}
			assign[pos] = 0
		}
		if pos < 0 {
			break
		}
	}
	res.Answer = answer
	res.Vars["answer"] = answer
	return res, nil
}

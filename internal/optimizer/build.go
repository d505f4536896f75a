package optimizer

import (
	"fmt"
	"strconv"

	"fusionq/internal/plan"
)

// BuildPlan materializes a sketch into the canonical round-structured plan
// of Figure 2, extended with the Section 4 postoptimization operations when
// the sketch requests them:
//
//   - loaded sources contribute F_j := lq(R_j) up front and evaluate their
//     conditions with free local selections on F_j;
//   - with difference pruning, each round's semijoin queries form a chain
//     in which a source only receives the items not yet confirmed by the
//     round's selection results or by earlier semijoin answers.
func BuildPlan(pr *Problem, sk Sketch) (*plan.Plan, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	m, n := len(pr.Conds), len(pr.Sources)
	if len(sk.Ordering) != m {
		return nil, fmt.Errorf("optimizer: ordering has %d conditions, want %d", len(sk.Ordering), m)
	}
	seen := make([]bool, m)
	for _, c := range sk.Ordering {
		if c < 0 || c >= m || seen[c] {
			return nil, fmt.Errorf("optimizer: ordering %v is not a permutation of conditions", sk.Ordering)
		}
		seen[c] = true
	}
	if len(sk.Choices) != m {
		return nil, fmt.Errorf("optimizer: choices have %d rounds, want %d", len(sk.Choices), m)
	}
	for r, row := range sk.Choices {
		if len(row) != n {
			return nil, fmt.Errorf("optimizer: round %d has %d choices, want %d", r+1, len(row), n)
		}
	}
	if sk.Loaded != nil && len(sk.Loaded) != n {
		return nil, fmt.Errorf("optimizer: loaded flags have %d sources, want %d", len(sk.Loaded), n)
	}

	p := &plan.Plan{Conds: pr.Conds, Sources: pr.Sources, Class: sk.Class}
	p.Memoize()
	loaded := func(j int) bool { return sk.Loaded != nil && sk.Loaded[j] }

	for j := 0; j < n; j++ {
		if loaded(j) {
			p.Steps = append(p.Steps, plan.Step{Kind: plan.KindLoad, Out: loadName(j), Cond: -1, Source: j})
		}
	}

	for r := 1; r <= m; r++ {
		p.Steps = AppendRound(p.Steps, sk, r)
	}
	p.Result = roundName(m)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: built invalid plan: %w", err)
	}
	return p, nil
}

// AppendRound appends round r (1-based) of a sketch to steps in the
// canonical shape of Figure 2: condition sk.Ordering[r-1] at every source
// by the method sk.Choices[r-1] gives it (round 1 is all selections), the
// round's union X_r, and the intersection with X_{r-1} when a selection's
// result is not already a subset of it. BuildPlan calls it for every round
// of a finished sketch; adaptive execution calls it for the one round it
// has just decided. The sketch must be well formed through round r, and for
// r > 1 steps must end with round r-1.
func AppendRound(steps []plan.Step, sk Sketch, r int) []plan.Step {
	n := len(sk.Choices[r-1])
	loaded := func(j int) bool { return sk.Loaded != nil && sk.Loaded[j] }
	ci := sk.Ordering[r-1]
	prev := ""
	if r > 1 {
		prev = steps[len(steps)-1].Out // X_{r-1}: the round before ends steps
	}
	var selVars, sjVars []string

	// Selection-role results (round 1 is all selections by definition).
	for j := 0; j < n; j++ {
		if r > 1 && sk.Choices[r-1][j] != MethodSelect {
			continue
		}
		out := varName(r, j)
		if loaded(j) {
			steps = append(steps, plan.Step{Kind: plan.KindLocalSelect, Out: out, Cond: ci, Source: -1, In: []string{loadName(j)}})
		} else {
			steps = append(steps, plan.Step{Kind: plan.KindSelect, Out: out, Cond: ci, Source: j})
		}
		selVars = append(selVars, out)
	}

	// Semijoin-role results: loaded sources first (their pruning is
	// free), then remote sources in index order.
	if r > 1 {
		semiRole := func(j int) bool {
			c := sk.Choices[r-1][j]
			return c == MethodSemijoin || c == MethodBloom
		}
		var chain []int
		for j := 0; j < n; j++ {
			if semiRole(j) && loaded(j) {
				chain = append(chain, j)
			}
		}
		remoteStart := len(chain)
		inChain := map[int]bool{}
		if sk.DiffPrune && sk.ChainOrder != nil && r-1 < len(sk.ChainOrder) {
			for _, j := range sk.ChainOrder[r-1] {
				if j >= 0 && j < n && semiRole(j) && !loaded(j) && !inChain[j] {
					chain = append(chain, j)
					inChain[j] = true
				}
			}
		}
		for j := 0; j < n; j++ {
			if semiRole(j) && !loaded(j) && !inChain[j] {
				chain = append(chain, j)
			}
		}
		d := prev
		if sk.DiffPrune && len(chain) > 0 && len(selVars) > 0 {
			su := selVars[0]
			if len(selVars) > 1 {
				su = "S" + strconv.Itoa(r)
				steps = append(steps, plan.Step{Kind: plan.KindUnion, Out: su, Cond: -1, Source: -1, In: append([]string(nil), selVars...)})
			}
			nd := "D" + strconv.Itoa(r)
			steps = append(steps, plan.Step{Kind: plan.KindDiff, Out: nd, Cond: -1, Source: -1, In: []string{d, su}})
			d = nd
		}
		for k, j := range chain {
			out := varName(r, j)
			switch {
			case loaded(j):
				tmp := "T" + out[1:]
				steps = append(steps, plan.Step{Kind: plan.KindLocalSelect, Out: tmp, Cond: ci, Source: -1, In: []string{loadName(j)}})
				steps = append(steps, plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: []string{tmp, d}})
			case sk.Choices[r-1][j] == MethodBloom:
				steps = append(steps, plan.Step{Kind: plan.KindBloomSemijoin, Out: out, Cond: ci, Source: j, In: []string{d}})
			default:
				steps = append(steps, plan.Step{Kind: plan.KindSemijoin, Out: out, Cond: ci, Source: j, In: []string{d}})
			}
			sjVars = append(sjVars, out)
			// Prune the running semijoin set when pruning is on and a
			// later remote semijoin will still ship it.
			if sk.DiffPrune && k+1 < len(chain) && remoteStart < len(chain) {
				nd := "D" + strconv.Itoa(r) + "_" + strconv.Itoa(k+1)
				steps = append(steps, plan.Step{Kind: plan.KindDiff, Out: nd, Cond: -1, Source: -1, In: []string{d, out}})
				d = nd
			}
		}
	}

	// Combine the round: X_r := ∪ results, intersected with the running
	// set when selection results (not subsets of it) are present.
	out := roundName(r)
	steps = append(steps, plan.Step{Kind: plan.KindUnion, Out: out, Cond: -1, Source: -1, In: append(selVars, sjVars...)})
	if r > 1 && len(selVars) > 0 {
		steps = append(steps, plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: []string{out, prev}})
	}
	return steps
}

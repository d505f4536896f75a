package optimizer

import (
	"fmt"

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
	var seenBuf [namedRounds]bool
	seen := seenBuf[:]
	if m > len(seen) {
		seen = make([]bool, m)
	}
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

	// The plan's steps, and every step's inputs, are each one array sized
	// up front, so a plan is the same few allocations whatever its shape.
	steps, ins := 0, 0
	for j := 0; j < n; j++ {
		if sk.loaded(j) {
			steps++
		}
	}
	for r := 1; r <= m; r++ {
		s, i := roundSize(sk, r)
		steps, ins = steps+s, ins+i
	}
	p := &plan.Plan{Conds: pr.Conds, Sources: pr.Sources, Class: sk.Class, Steps: make([]plan.Step, 0, steps)}
	p.Memoize()
	for j := 0; j < n; j++ {
		if sk.loaded(j) {
			p.Steps = append(p.Steps, plan.Step{Kind: plan.KindLoad, Out: loadName(j), Cond: -1, Source: j})
		}
	}
	in := make([]string, ins)
	for r := 1; r <= m; r++ {
		p.Steps, in = appendRound(p.Steps, in, sk, r)
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
// result is not already a subset of it. BuildPlan builds every round of a
// finished sketch this way; adaptive execution calls it for the one round
// it has just decided. The sketch must be well formed through round r, and
// for r > 1 steps must end with round r-1.
func AppendRound(steps []plan.Step, sk Sketch, r int) []plan.Step {
	_, ins := roundSize(sk, r)
	steps, _ = appendRound(steps, make([]string, ins), sk, r)
	return steps
}

// loaded reports whether the sketch loads source j.
func (sk *Sketch) loaded(j int) bool { return sk.Loaded != nil && sk.Loaded[j] }

// semiRole reports whether round r (1-based) evaluates its condition at
// source j with a semijoin, plain or Bloom.
func (sk *Sketch) semiRole(r, j int) bool {
	c := sk.Choices[r-1][j]
	return r > 1 && (c == MethodSemijoin || c == MethodBloom)
}

// selectRole reports whether round r (1-based) evaluates its condition at
// source j with a selection: every source in round 1.
func (sk *Sketch) selectRole(r, j int) bool {
	return r == 1 || sk.Choices[r-1][j] == MethodSelect
}

// roundSize is how many steps appendRound appends for round r and how many
// inputs they read in all.
func roundSize(sk Sketch, r int) (steps, ins int) {
	sel, semiLoaded, semiRemote := 0, 0, 0
	for j := range sk.Choices[r-1] {
		switch {
		case sk.selectRole(r, j):
			sel++
			if sk.loaded(j) {
				ins++ // the local selection reads F_j
			}
		case sk.semiRole(r, j) && sk.loaded(j):
			semiLoaded++
		case sk.semiRole(r, j):
			semiRemote++
		}
	}
	chain := semiLoaded + semiRemote
	// The selections, a loaded source's local selection and intersection,
	// a remote source's semijoin, and the round's union of them all.
	steps = sel + 2*semiLoaded + semiRemote + 1
	ins += 3*semiLoaded + semiRemote + sel + chain
	if r > 1 && sel > 0 {
		steps, ins = steps+1, ins+2 // X_r ∩ X_{r-1}
	}
	if sk.DiffPrune && chain > 0 && sel > 0 {
		steps, ins = steps+1, ins+2 // D_r := X_{r-1} − S_r
		if sel > 1 {
			steps, ins = steps+1, ins+sel // S_r := ∪ selections
		}
	}
	if sk.DiffPrune && semiRemote > 0 {
		steps, ins = steps+chain-1, ins+2*(chain-1) // the chain's D_{r_k}
	}
	return steps, ins
}

// appendRound is AppendRound with every step's inputs cut from in, which
// must hold at least roundSize's count; it returns the rest of in.
func appendRound(steps []plan.Step, in []string, sk Sketch, r int) ([]plan.Step, []string) {
	n := len(sk.Choices[r-1])
	ci := sk.Ordering[r-1]
	prev := ""
	if r > 1 {
		prev = steps[len(steps)-1].Out // X_{r-1}: the round before ends steps
	}
	take := func(names ...string) []string {
		out := in[:len(names):len(names)]
		in = in[len(names):]
		copy(out, names)
		return out
	}

	// The semijoin-role sources in chain order: loaded sources first (their
	// pruning is free), then remote sources in the order ChainOrder gives,
	// then the rest in index order.
	var chainBuf [namedSources]int
	var inChainBuf [namedSources]bool
	chain, inChain := chainBuf[:0], inChainBuf[:]
	if n > len(inChain) {
		inChain = make([]bool, n)
	}
	sel := 0
	for j := 0; j < n; j++ {
		if sk.selectRole(r, j) {
			sel++
		} else if sk.semiRole(r, j) && sk.loaded(j) {
			chain = append(chain, j)
		}
	}
	remoteStart := len(chain)
	if sk.DiffPrune && sk.ChainOrder != nil && r-1 < len(sk.ChainOrder) {
		for _, j := range sk.ChainOrder[r-1] {
			if j >= 0 && j < n && sk.semiRole(r, j) && !sk.loaded(j) && !inChain[j] {
				chain = append(chain, j)
				inChain[j] = true
			}
		}
	}
	for j := 0; j < n; j++ {
		if sk.semiRole(r, j) && !sk.loaded(j) && !inChain[j] {
			chain = append(chain, j)
		}
	}
	// The round's union reads every selection's result, then every
	// semijoin's.
	union := in[: sel+len(chain) : sel+len(chain)]
	in = in[len(union):]

	// Selection-role results.
	k := 0
	for j := 0; j < n; j++ {
		if !sk.selectRole(r, j) {
			continue
		}
		out := varName(r, j)
		if sk.loaded(j) {
			steps = append(steps, plan.Step{Kind: plan.KindLocalSelect, Out: out, Cond: ci, Source: -1, In: take(loadName(j))})
		} else {
			steps = append(steps, plan.Step{Kind: plan.KindSelect, Out: out, Cond: ci, Source: j})
		}
		union[k], k = out, k+1
	}

	// Semijoin-role results.
	if r > 1 {
		d := prev
		if sk.DiffPrune && len(chain) > 0 && sel > 0 {
			su := union[0]
			if sel > 1 {
				su = unionName(r)
				steps = append(steps, plan.Step{Kind: plan.KindUnion, Out: su, Cond: -1, Source: -1, In: take(union[:sel]...)})
			}
			nd := diffName(r, 0)
			steps = append(steps, plan.Step{Kind: plan.KindDiff, Out: nd, Cond: -1, Source: -1, In: take(d, su)})
			d = nd
		}
		for c, j := range chain {
			out := varName(r, j)
			switch {
			case sk.loaded(j):
				tmp := localName(r, j)
				steps = append(steps, plan.Step{Kind: plan.KindLocalSelect, Out: tmp, Cond: ci, Source: -1, In: take(loadName(j))})
				steps = append(steps, plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: take(tmp, d)})
			case sk.Choices[r-1][j] == MethodBloom:
				steps = append(steps, plan.Step{Kind: plan.KindBloomSemijoin, Out: out, Cond: ci, Source: j, In: take(d)})
			default:
				steps = append(steps, plan.Step{Kind: plan.KindSemijoin, Out: out, Cond: ci, Source: j, In: take(d)})
			}
			union[sel+c] = out
			// Prune the running semijoin set when pruning is on and a
			// later remote semijoin will still ship it.
			if sk.DiffPrune && c+1 < len(chain) && remoteStart < len(chain) {
				nd := diffName(r, c+1)
				steps = append(steps, plan.Step{Kind: plan.KindDiff, Out: nd, Cond: -1, Source: -1, In: take(d, out)})
				d = nd
			}
		}
	}

	// Combine the round: X_r := ∪ results, intersected with the running
	// set when selection results (not subsets of it) are present.
	out := roundName(r)
	steps = append(steps, plan.Step{Kind: plan.KindUnion, Out: out, Cond: -1, Source: -1, In: union})
	if r > 1 && sel > 0 {
		steps = append(steps, plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: take(out, prev)})
	}
	return steps, in
}

package optimizer

import "fmt"

// SJA implements the SJA algorithm of Figure 4. It differs from SJ in the
// inner "source loop": for each condition after the first and each source
// independently, it chooses between a selection query and a semijoin query.
// The per-source decisions are independent given the ordering, which is why
// the algorithm finds the optimal semijoin-adaptive plan in O((m!)·m·n)
// even though the class contains O((m!)·2^{n(m-2)}) plans.
func SJA(pr *Problem) (Result, error) {
	return searched(pr, "semijoin-adaptive", selectAll, perSource)
}

// SJAWithOrdering runs SJA's per-source decision loop for one fixed
// condition ordering. Experiments on condition dependence use it to measure
// every ordering's actual executed cost against the one SJA picked from
// independence-based estimates.
func SJAWithOrdering(pr *Problem, ord []int) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	if len(ord) != len(pr.Conds) {
		return Result{}, fmt.Errorf("optimizer: ordering has %d conditions, want %d", len(ord), len(pr.Conds))
	}
	return fixed(pr, "semijoin-adaptive", append([]int(nil), ord...), perSource)
}

package optimizer

import (
	"fmt"
	"math"

	"fusionq/internal/plan"
)

// ExhaustiveLimit bounds the number of plans Exhaustive will enumerate.
const ExhaustiveLimit = 1 << 21

// Exhaustive enumerates the entire semijoin-adaptive plan space — every
// condition ordering crossed with every per-(round, source) method
// combination (selection, semijoin, Bloom semijoin), O((m!)·3^{n(m-1)})
// plans — scoring each with the static
// estimator. It exists as an oracle for small instances: the tests verify
// that SJA's independent per-source decisions reach the brute-force
// optimum, the paper's central algorithmic claim.
func Exhaustive(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	m, n := len(pr.Conds), len(pr.Sources)
	combosPerOrdering := math.Pow(3, float64(n*(m-1)))
	fact := 1.0
	for i := 2; i <= m; i++ {
		fact *= float64(i)
	}
	if fact*combosPerOrdering > ExhaustiveLimit {
		return Result{}, fmt.Errorf("optimizer: exhaustive search over %.0f plans exceeds limit %d", fact*combosPerOrdering, ExhaustiveLimit)
	}

	best := Result{Cost: math.Inf(1)}
	digits := n * (m - 1)
	combos := 1
	for i := 0; i < digits; i++ {
		combos *= 3
	}
	ord := identityOrder(m)
	for more := true; more; more = nextPermutation(ord) {
		for mask := 0; mask < combos; mask++ {
			choices := allSelectChoices(m, n)
			b := mask
			for r := 1; r < m; r++ {
				for j := 0; j < n; j++ {
					choices[r][j] = Method(b % 3)
					b /= 3
				}
			}
			sk := Sketch{Ordering: append([]int(nil), ord...), Choices: choices, Class: "exhaustive"}
			p, err := BuildPlan(pr, sk)
			if err != nil {
				return Result{}, err
			}
			est, err := plan.EstimateCost(p, pr.Table)
			if err != nil {
				return Result{}, err
			}
			if improves(est.Cost, sk.Ordering, best.Cost, best.Sketch.Ordering) {
				best = Result{Plan: p, Cost: est.Cost, Sketch: sk}
			}
		}
	}
	return best, nil
}

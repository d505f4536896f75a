package optimizer

import "fusionq/internal/plan"

// ResponseTimeSJA optimizes for response time under parallel execution —
// the future-work objective of Section 6 — instead of total work. Within a
// round the per-source choices that minimize each source's own response
// cost also minimize the round's critical path, so the inner decisions
// stay per-source independent like SJA's, but they rank methods by
// response cost: an emulated semijoin's bindings fan out over the source's
// connections (CostTable.Conns), which can make it the response-time
// winner where the total-work objective would pick a selection. What also
// changes is the objective that ranks condition orderings: the sum over
// rounds of the slowest source's cost, rather than the sum of all costs.
//
// Result.Cost is the estimated response time (not total work); tests and
// experiment E10 compare both objectives across both optimizers.
func ResponseTimeSJA(pr *Problem) (Result, error) {
	best, err := searched(pr, "response-time-sja", slowestSelect, slowestSource)
	if err != nil {
		return Result{}, err
	}
	// Report the estimator's response time for the emitted plan so the
	// number is comparable with plan.EstimateResponseTime on other plans.
	best.Cost, err = plan.EstimateResponseTime(best.Plan, pr.Table)
	if err != nil {
		return Result{}, err
	}
	return best, nil
}

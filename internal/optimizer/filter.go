package optimizer

// Filter implements the FILTER algorithm (Section 3): the best filter plan
// pushes each condition to each source with mn selection queries and
// combines the results at the mediator. No plan-space search is needed; the
// running time is proportional to the size of the emitted plan, O(mn).
func Filter(pr *Problem) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return fixed(pr, "filter", identityOrder(len(pr.Conds)), allSelect)
}

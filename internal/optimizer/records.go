package optimizer

import (
	"fusionq/internal/plan"
	"fusionq/internal/stats"
)

// Records returns res with a plan that also retrieves the answer entities'
// records, by whichever schedule the cost model prices lower: the one place
// a records query's schedule is chosen, whichever row planned it. Shipping
// one item's records from source j costs its load transfer, Load[j] −
// QueryFixed[j], over its SourceItems[j] items. A fetch round asks each
// source the plan did not load once, for the answer items it is expected to
// hold. The final round ships the records of all its selections and native
// semijoins return, and covers the answer only where the catalog can know
// it does, on a roster of one source (mirrors register as the replicas of
// one logical source); elsewhere the fetch round follows it. A tie keeps
// two phases.
func Records(pr *Problem, res Result) (Result, error) {
	t := pr.Table
	est, err := plan.EstimateCost(res.Plan, t)
	if err != nil {
		return Result{}, err
	}
	p := *res.Plan
	perItem := func(j int) float64 { return (t.Load[j] - t.QueryFixedOf(j)) / max(t.SourceItems[j], 1) }
	loaded := make([]bool, t.N())
	for _, s := range p.Steps {
		if s.Kind == plan.KindLoad {
			loaded[s.Source] = true
		}
	}
	fetch, answer := 0.0, est.Cards[p.Flow().Result]
	for j := range loaded {
		if !loaded[j] {
			fetch += t.QueryFixedOf(j) + answer*t.SourceItems[j]/t.Domain*perItem(j)
		}
	}
	final, covered, last := 0.0, t.N() == 1, p.FinalCond()
	for k, s := range p.Steps {
		switch {
		case s.Cond != last || s.Kind == plan.KindLocalSelect: // loaded contents hold their records
		case s.Kind == plan.KindSelect || s.Kind == plan.KindSemijoin && t.Support[s.Source] == stats.SemijoinNative:
			final += est.Cards[k] * perItem(s.Source)
		default:
			covered = false
		}
	}
	if !covered {
		final += fetch
	}
	p.Records = plan.FetchRecords
	if final < fetch {
		p.Records, fetch = plan.FinalRecords, final
	}
	res.Plan, res.Cost = &p, res.Cost+fetch
	return res, nil
}

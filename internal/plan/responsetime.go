package plan

import (
	"fusionq/internal/stats"
)

// EstimateResponseTime estimates the simulated wall-clock of executing the
// plan with the parallel (response-time) executor of Section 6: runs of
// consecutive source queries with no data dependencies execute
// concurrently, contributing their slowest member ("critical path") rather
// than their sum; everything else is sequential. Within a source, an
// emulated semijoin's per-binding queries additionally fan out over the
// source's connections (CostTable.Conns), so its contribution is the
// per-lane response cost rather than the serial sum. Total work is
// unchanged — this is the second objective the paper names as future work.
//
// The step costs reuse the EstimateCost bookkeeping, so total-work and
// response-time estimates for the same plan are consistent.
func EstimateResponseTime(p *Plan, table *stats.CostTable) (float64, error) {
	est, err := EstimateCost(p, table)
	if err != nil {
		return 0, err
	}
	rt := 0.0
	for k := 0; k < len(p.Steps); {
		end := BatchEnd(p.Steps, k)
		if end > k+1 {
			// Concurrent batch: critical path is the per-source maximum
			// (a source processes its own queries over its own connections).
			perSource := map[int]float64{}
			for i := k; i < end; i++ {
				perSource[p.Steps[i].Source] += est.RespCosts[i]
			}
			max := 0.0
			for _, c := range perSource {
				if c > max {
					max = c
				}
			}
			rt += max
			k = end
			continue
		}
		rt += est.RespCosts[k]
		k++
	}
	return rt, nil
}

// BatchEnd is the batching rule the parallel executor schedules by and
// EstimateResponseTime prices by: it finds the longest run of source-query
// steps starting at k whose inputs are independent of the batch's own
// outputs, so they may execute concurrently. This captures exactly one
// round's selection and semijoin queries in the canonical plans;
// difference-pruned chains serialize naturally because the interleaved diff
// steps are not source queries.
func BatchEnd(steps []Step, k int) int {
	outs := map[string]bool{}
	end := k
	for end < len(steps) {
		s := steps[end]
		if !s.IsSourceQuery() {
			break
		}
		dep := false
		for _, in := range s.In {
			if outs[in] {
				dep = true
			}
		}
		if dep {
			break
		}
		outs[s.Out] = true
		end++
	}
	return end
}

package plan

import (
	"fusionq/internal/stats"
)

// EstimateResponseTime estimates the simulated wall-clock of executing the
// plan with the parallel (response-time) executor of Section 6: each batch
// of Flow.BatchEnd, a run of consecutive source queries with no data
// dependencies among them, executes concurrently, contributing its slowest
// member ("critical path") rather than its sum; everything else is
// sequential. Within a source, an emulated semijoin's per-binding queries
// additionally fan out over the source's connections (CostTable.Conns), so
// its contribution is the per-lane response cost rather than the serial
// sum. Total work is unchanged — this is the second objective the paper
// names as future work.
//
// The step costs reuse the EstimateCost bookkeeping, so total-work and
// response-time estimates for the same plan are consistent.
func EstimateResponseTime(p *Plan, table *stats.CostTable) (float64, error) {
	est, err := EstimateCost(p, table)
	if err != nil {
		return 0, err
	}
	batchEnd := p.Flow().BatchEnd
	rt := 0.0
	for k := 0; k < len(p.Steps); {
		end := batchEnd[k]
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

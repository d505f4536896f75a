package plan

import (
	"math"

	"fusionq/internal/set"
	"fusionq/internal/stats"
)

// StreamEstimate extends Estimate with the bookkeeping the streaming
// executor adds on top of materialized execution: how many batches each step
// emits, what the extra chunked-exchange overhead costs, and how early the
// first answer batch can surface.
type StreamEstimate struct {
	Estimate
	// Batches[k] is the estimated number of batches step k emits: its
	// cardinality cut by set.Schedule (set.Batches), at least 1 — an empty
	// result is still one exchange.
	Batches []float64
	// ChunkOverhead is the extra total work streaming pays over the
	// materialized Estimate.Cost: every continuation chunk of a chunked
	// selection and every extra probe of a batched native semijoin is a
	// separate exchange charging the source's fixed per-query cost.
	ChunkOverhead float64
	// Cost is the streaming total work: Estimate.Cost + ChunkOverhead.
	Cost float64
	// FirstAnswerCost estimates the cost on the critical path to the first
	// result batch. Pipelined operators forward it after one upstream batch;
	// barrier operators (loads, Bloom semijoins) need their input complete.
	// This is what decouples first-answer latency from total work.
	FirstAnswerCost float64
}

// EstimateStreamCost estimates a plan's cost under the streaming executor
// whose streams start with batches of the given size (≤0 means
// set.DefaultBatch). It builds on EstimateCost — cardinalities and the
// materialized per-step costs are identical — and layers the streaming model
// on top:
//
//   - a step producing card items emits set.Batches(card, batch) batches,
//     the count of the one schedule every stream follows (the first batch
//     of batch items, each later one double the one before up to
//     set.MaxGrowth times the first);
//   - chunked selections pay the source's fixed per-query cost once per
//     continuation chunk, and batched native semijoins once per extra
//     probe (emulated semijoins are per-binding either way, and loads and
//     Bloom semijoins stay single exchanges);
//   - the first answer batch flows through the pipeline as soon as each
//     operator has seen one batch from every input, so its cost is the
//     first batch's share of each pipelined step (batch/card of its items),
//     while barrier operators charge their full upstream cost.
func EstimateStreamCost(p *Plan, table *stats.CostTable, batch int) (StreamEstimate, error) {
	base, err := EstimateCost(p, table)
	if err != nil {
		return StreamEstimate{}, err
	}
	if batch <= 0 {
		batch = set.DefaultBatch
	}
	est := StreamEstimate{Estimate: base, Batches: make([]float64, len(p.Steps))}
	batches := func(card float64) float64 {
		return math.Max(1, set.Batches(card, batch))
	}
	// firstShare is the part of a stream of card items its first batch
	// carries.
	firstShare := func(card float64) float64 {
		return math.Min(1, float64(batch)/card)
	}
	// first[v] is the estimated cost until v's first batch is available.
	first := map[string]float64{}
	for k, s := range p.Steps {
		est.Batches[k] = batches(base.Cards[s.Out])
		var f float64
		switch s.Kind {
		case KindSelect:
			// Continuation chunks are extra exchanges; the first chunk
			// arrives after the first batch's share of the step's work.
			est.ChunkOverhead += (est.Batches[k] - 1) * table.QueryFixedOf(s.Source)
			f = base.StepCosts[k] * firstShare(base.Cards[s.Out])
		case KindSemijoin:
			// The streaming executor probes once per input batch. Native
			// semijoins pay the fixed exchange cost per probe; emulated
			// semijoins issue per-binding queries either way.
			inCard := base.Cards[s.In[0]]
			if j := s.Source; j < len(table.Support) && table.Support[j] == stats.SemijoinNative {
				est.ChunkOverhead += (batches(inCard) - 1) * table.QueryFixedOf(j)
			}
			f = first[s.In[0]] + base.RespCosts[k]*firstShare(inCard)
		case KindBloomSemijoin:
			// Barrier: the filter is built over the complete input set, so
			// the whole upstream cost is paid before the single exchange.
			f = upstreamFull(p, base, k, s.In[0]) + base.StepCosts[k]
		case KindLoad:
			// A load is one exchange; nothing is emitted until it returns.
			f = base.StepCosts[k]
		case KindLocalSelect:
			// Local selection over loaded contents waits for the load.
			f = first[s.In[0]]
		case KindUnion, KindIntersect, KindDiff:
			// The incremental merges emit sorted output, so they need a
			// head batch from every input before the first answer batch.
			for _, in := range s.In {
				f = math.Max(f, first[in])
			}
		}
		first[s.Out] = f
	}
	est.FirstAnswerCost = first[p.Result]
	if math.IsInf(base.Cost, 1) {
		est.ChunkOverhead = 0
	}
	est.Cost = base.Cost + est.ChunkOverhead
	return est, nil
}

// upstreamFull sums the charged cost of every step feeding (transitively)
// into variable v among the first k steps — the work that must complete
// before a barrier operator over v can run. Summing (rather than taking a
// critical path) keeps the estimate in total-work units, consistent with
// Estimate.Cost.
func upstreamFull(p *Plan, base Estimate, k int, v string) float64 {
	need := map[string]bool{v: true}
	total := 0.0
	for i := k - 1; i >= 0; i-- {
		s := p.Steps[i]
		if !need[s.Out] {
			continue
		}
		need[s.Out] = false
		total += base.StepCosts[i]
		for _, in := range s.In {
			need[in] = true
		}
	}
	return total
}

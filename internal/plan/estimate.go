package plan

import (
	"fmt"
	"math"

	"fusionq/internal/stats"
)

// Estimate is the static cost estimate of a plan together with the
// cardinality bookkeeping that produced it. It is the single source of
// truth for comparing candidate plans: the optimization algorithms follow
// the bookkeeping of Figures 3 and 4 internally and their reported costs
// agree with this estimator on the plans they emit (enforced by tests).
type Estimate struct {
	// Cost is the estimated total work: the sum of the costs of the
	// constituent source queries (Section 2.4). +Inf marks plans using
	// unsupported operations.
	Cost float64
	// Cards[k] is the estimated item cardinality of step k's output, the
	// version of its variable that step made.
	Cards []float64
	// StepCosts holds the charged cost of each step (zero for local ops).
	StepCosts []float64
	// RespCosts holds each step's response-time cost: equal to StepCosts
	// except for emulated semijoins, whose per-binding queries fan out over
	// the source's connections (CostTable.SemijoinResponseCost).
	RespCosts []float64
}

// varInfo tracks what the estimator knows about one step's output.
type varInfo struct {
	card float64
	// condIdx is the condition whose satisfied-item set this variable
	// under-approximates, or -1.
	condIdx int
	// loadedSource is the source index for lq outputs, else -1.
	loadedSource int
	// subsetOf is the step whose output this one is provably a subset of
	// (semijoin and difference outputs), or -1. It picks between exact and
	// independence-based difference estimates.
	subsetOf int
}

// EstimateCost walks the plan, charging each source query via the cost
// table and propagating cardinality estimates:
//
//   - sq(c_i, R_j) yields Card[i][j] items;
//   - sjq(c_i, R_j, Y) yields |Y|·Frac[i][j] items;
//   - a union of same-condition results keeps the condition tag, so the
//     canonical round step X_i := X_{i-1} ∩ (∪_j X_ij) is estimated as
//     RoundCard(i, |X_{i-1}|), matching the optimizers' bookkeeping;
//   - differences assume the subtrahend is a subset (how plans use them);
//   - local operations are free.
func EstimateCost(p *Plan, table *stats.CostTable) (Estimate, error) {
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	if len(p.Conds) != table.M() {
		return Estimate{}, fmt.Errorf("plan: %d conditions but table has %d", len(p.Conds), table.M())
	}
	if len(p.Sources) != table.N() {
		return Estimate{}, fmt.Errorf("plan: %d sources but table has %d", len(p.Sources), table.N())
	}
	n := len(p.Steps)
	floats := make([]float64, 3*n)
	est := Estimate{Cards: floats[:n:n], StepCosts: floats[n : 2*n : 2*n], RespCosts: floats[2*n:]}
	// vars[k] is what is known of step k's output.
	vars := make([]varInfo, n)
	for k, s := range p.Steps {
		out := varInfo{condIdx: -1, loadedSource: -1, subsetOf: -1}
		y := -1 // the output step k reads as its In[0]
		if len(s.In) > 0 {
			y = p.assigned(s.In[0], k)
		}
		switch s.Kind {
		case KindSelect:
			est.StepCosts[k] = table.SelectCost(s.Cond, s.Source)
			out.card = table.SelectCard(s.Cond, s.Source)
			out.condIdx = s.Cond
		case KindSemijoin:
			est.StepCosts[k] = table.SemijoinCost(s.Cond, s.Source, vars[y].card)
			est.RespCosts[k] = table.SemijoinResponseCost(s.Cond, s.Source, vars[y].card)
			out.card = vars[y].card * table.Frac[s.Cond][s.Source]
			out.condIdx = s.Cond
			out.subsetOf = y
		case KindBloomSemijoin:
			// After the mediator filters false positives, the result is
			// exactly the semijoin result.
			est.StepCosts[k] = table.BloomSemijoinCost(s.Cond, s.Source, vars[y].card)
			out.card = vars[y].card * table.Frac[s.Cond][s.Source]
			out.condIdx = s.Cond
			out.subsetOf = y
		case KindLoad:
			est.StepCosts[k] = table.LoadCost(s.Source)
			out.card = table.SourceItems[s.Source]
			out.loadedSource = s.Source
		case KindLocalSelect:
			if j := vars[y].loadedSource; j >= 0 {
				out.card = table.SelectCard(s.Cond, j)
			} else {
				out.card = vars[y].card * fracAcrossSources(table, s.Cond)
			}
			out.condIdx = s.Cond
		case KindUnion:
			sum := 0.0
			sharedCond := vars[y].condIdx
			for _, name := range s.In {
				v := vars[p.assigned(name, k)]
				sum += v.card
				if v.condIdx != sharedCond {
					sharedCond = -1
				}
			}
			out.card = math.Min(sum, table.Domain)
			out.condIdx = sharedCond
		case KindIntersect:
			out.card = intersectCard(table, p, k, vars)
		case KindDiff:
			a, b := vars[y], vars[p.assigned(s.In[1], k)]
			if b.subsetOf == y {
				// b ⊆ a: the subtraction is exact.
				out.card = math.Max(0, a.card-b.card)
			} else {
				// Independent sets: an item of a is in b with probability
				// |b| / domain.
				p := b.card / table.Domain
				if p > 1 {
					p = 1
				}
				out.card = a.card * (1 - p)
			}
			out.condIdx = a.condIdx
			out.subsetOf = y
		}
		est.Cost += est.StepCosts[k]
		if s.Kind != KindSemijoin {
			est.RespCosts[k] = est.StepCosts[k]
		}
		vars[k] = out
		est.Cards[k] = out.card
	}
	return est, nil
}

// intersectCard estimates |∩ inputs| of step k, an intersection. The
// canonical round pattern — a running set intersected with a same-condition
// union — uses the table's RoundCard; anything else falls back to an
// independence estimate.
func intersectCard(table *stats.CostTable, p *Plan, k int, vars []varInfo) float64 {
	ins := p.Steps[k].In
	if len(ins) == 2 {
		a, b := vars[p.assigned(ins[0], k)], vars[p.assigned(ins[1], k)]
		// The canonical round step X_i := X_i ∩ X_{i-1}: the first operand
		// is the round's same-condition union, the second the running set
		// (which itself carries a condition tag after round one). Either
		// operand order is recognized when only one side is tagged.
		switch {
		case a.condIdx >= 0 && b.condIdx >= 0:
			return table.RoundCard(a.condIdx, b.card)
		case a.condIdx < 0 && b.condIdx >= 0:
			return table.RoundCard(b.condIdx, a.card)
		case b.condIdx < 0 && a.condIdx >= 0:
			return table.RoundCard(a.condIdx, b.card)
		}
	}
	// Independence: domain · Π (card_k / domain).
	card := table.Domain
	for _, name := range ins {
		card *= vars[p.assigned(name, k)].card / table.Domain
	}
	return card
}

// fracAcrossSources is the union-bound fraction of items satisfying
// condition i at any source.
func fracAcrossSources(table *stats.CostTable, i int) float64 {
	f := 0.0
	for j := 0; j < table.N(); j++ {
		f += table.Frac[i][j]
	}
	return math.Min(f, 1)
}

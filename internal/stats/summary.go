package stats

import (
	"math"
	"sort"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
)

// This file reads condition cardinalities off a relation.Summary — the
// per-attribute description a source computes over its own contents and
// ships once (source.Summarize) — so the optimizer can cost any condition
// without running it against the source. The summary counts items, so a
// comparison with a literal is read off it directly; the model below serves
// only to combine comparisons.

// defaultSelectivity is the guess for a construct the summary says nothing
// about.
const defaultSelectivity = 1.0 / 3

// EstimateSelectivity estimates the fraction of the summarized source's
// items that satisfy the condition: those with at least one tuple satisfying
// it. A comparison of a summarized attribute with a literal is as exact as
// the summary's buckets. Compound conditions are combined per tuple, under
// the model that an item's k = tuples/items tuples are independent draws:
// each leaf's item-level fraction q becomes the per-tuple probability
// 1−(1−q)^(1/k), conjunctions multiply, disjunctions add with overlap
// correction, negation complements, and the result goes back through
// 1−(1−p)^k. Constructs the summary cannot speak to default to 1/3.
func EstimateSelectivity(s *relation.Summary, c cond.Cond) float64 {
	k := 1.0
	if s.DistinctItems > 0 && s.Tuples > s.DistinctItems {
		k = float64(s.Tuples) / float64(s.DistinctItems)
	}
	return clamp01(1 - math.Pow(1-tupleSelectivity(s, c, k), k))
}

// tupleSelectivity is the per-tuple probability of c under the model of
// EstimateSelectivity.
func tupleSelectivity(s *relation.Summary, c cond.Cond, k float64) float64 {
	perTuple := func(itemFrac float64) float64 { return 1 - math.Pow(1-clamp01(itemFrac), 1/k) }
	switch v := c.(type) {
	case cond.True:
		return 1
	case *cond.And:
		return tupleSelectivity(s, v.L, k) * tupleSelectivity(s, v.R, k)
	case *cond.Or:
		a, b := tupleSelectivity(s, v.L, k), tupleSelectivity(s, v.R, k)
		return a + b - a*b
	case *cond.Not:
		return 1 - tupleSelectivity(s, v.C, k)
	case *cond.In:
		sel := 0.0
		for _, val := range v.Vals {
			sel += perTuple(itemFraction(s, v.Attr, cond.OpEq, val))
		}
		return clamp01(sel)
	case *cond.Compare:
		if v.Op == cond.OpNe {
			// Some tuple differs from the literal, which is not the
			// complement of some tuple equalling it.
			return 1 - perTuple(itemFraction(s, v.Attr, cond.OpEq, v.Lit))
		}
		return perTuple(itemFraction(s, v.Attr, v.Op, v.Lit))
	default:
		return defaultSelectivity
	}
}

// itemFraction is the fraction of the source's items with a tuple whose
// attr compares as op to lit (op is not OpNe).
func itemFraction(s *relation.Summary, attr string, op cond.Op, lit relation.Value) float64 {
	if h := s.Numeric[attr]; h != nil && lit.IsNumeric() {
		x := lit.AsFloat()
		switch op {
		case cond.OpLt:
			return fracBelow(h.Low, x, false)
		case cond.OpLe:
			return fracBelow(h.Low, x, true)
		case cond.OpGt:
			return 1 - fracBelow(h.High, x, true)
		case cond.OpGe:
			return 1 - fracBelow(h.High, x, false)
		case cond.OpEq:
			return fracWith(&h.Values, relation.NumericKey(x), s.DistinctItems)
		}
	} else if st := s.Strings[attr]; st != nil && lit.Kind() == relation.KindString && op == cond.OpEq {
		return fracWith(st, lit.Str(), s.DistinctItems)
	}
	// LIKE and range comparisons on strings, booleans, a literal of the
	// wrong kind: the summary has nothing to say.
	return defaultSelectivity
}

// fracWith is the fraction of the items carrying value v: its own count
// when it is one of the most common values, the tail's average otherwise.
func fracWith(c *relation.ValueCounts, v string, items int) float64 {
	if items <= 0 {
		return 0
	}
	if n, ok := c.MCV[v]; ok {
		return n / float64(items)
	}
	if c.OtherDistinct > 0 {
		return c.OtherCount / c.OtherDistinct / float64(items)
	}
	return 0
}

// fracBelow reads off equi-depth bucket boundaries q the fraction of the
// distribution below x — strictly, or including x itself when orEqual —
// interpolating inside the bucket x falls in. Boundaries that repeat x are
// mass sitting on x exactly: they count only when orEqual. A summary from a
// peer need not be sorted; whatever q holds, this does not panic.
func fracBelow(q []float64, x float64, orEqual bool) float64 {
	buckets := len(q) - 1
	if buckets < 1 {
		// No values, or all of them in one boundary.
		if len(q) == 1 && (q[0] < x || orEqual && q[0] == x) {
			return 1
		}
		return 0
	}
	// hi is the first boundary not below x (above x, when orEqual).
	hi := sort.Search(len(q), func(i int) bool {
		if orEqual {
			return q[i] > x
		}
		return q[i] >= x
	})
	switch {
	case hi == 0:
		return 0
	case hi == len(q):
		return 1
	}
	lo := hi - 1
	return (float64(lo) + (x-q[lo])/(q[hi]-q[lo])) / float64(buckets)
}

// clamp01 confines x to [0,1]; NaN, which only a malformed summary yields,
// becomes 0.
func clamp01(x float64) float64 {
	if !(x > 0) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// StatsFromSummary derives the SourceStats the cost-table builder consumes
// for the source called name: CondCard[i] is the estimated number of its
// items satisfying conds[i].
func StatsFromSummary(name string, sum *relation.Summary, conds []cond.Cond) SourceStats {
	st := SourceStats{
		Name: name, Tuples: sum.Tuples, DistinctItems: sum.DistinctItems,
		Bytes: sum.Bytes, CondCard: make([]float64, len(conds)),
	}
	for i, c := range conds {
		st.CondCard[i] = EstimateSelectivity(sum, c) * float64(sum.DistinctItems)
	}
	return st
}

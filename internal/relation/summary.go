package relation

import (
	"cmp"
	"math"
	"slices"
	"strconv"
)

// This file builds the compact description of a relation's contents that a
// source ships to the mediator once, so that planning can estimate the
// cardinality of any condition without asking the source again (the
// "whatever information is available at query optimization time" of
// Section 3, in the flavour of the multidatabase statistics work the paper
// cites, [5] and [15]). The value type lives here, below internal/source,
// because it describes a relation; what to conclude from it is
// internal/stats' business.

// SummaryBuckets is the largest number of equi-depth buckets a numeric
// attribute's distributions are cut into: an estimate read off one is within
// 1/SummaryBuckets of the truth. A distribution over fewer values than that
// gets one bucket per value.
const SummaryBuckets = 32

// SummaryMCVLimit is the number of most-common values kept per attribute.
const SummaryMCVLimit = 64

// summaryTrackLimit bounds the distinct values counted exactly per attribute
// while summarizing. A column of unique values (a payload, the merge
// attribute) would otherwise be held whole in the counting map; values
// first seen beyond the limit are counted as one distinct value each, which
// is what they are in such a column and an over-count of the tail's distinct
// values elsewhere.
const summaryTrackLimit = 4096

// Summary describes one relation: its global counts and, per attribute, the
// distribution of its values over the relation's items. Every count in it
// counts distinct merge-attribute items, not tuples, because that is what a
// selection returns: an item satisfies "A < x" when its smallest A does, and
// "A = x" when any of its tuples carries x.
type Summary struct {
	Tuples        int `json:"tuples"`
	DistinctItems int `json:"items"`
	Bytes         int `json:"bytes"`
	// Numeric and Strings are keyed by attribute name.
	Numeric map[string]*NumericStats `json:"numeric,omitempty"`
	Strings map[string]*ValueCounts  `json:"strings,omitempty"`
}

// NumericStats summarizes one numeric attribute. Low and High hold the
// boundaries of equi-depth buckets over a sorted distribution: entry i is
// the value a fraction i/(len-1) of the way through it.
type NumericStats struct {
	// Low is the distribution, over the items, of the item's smallest value
	// of the attribute; it answers < and <=.
	Low []float64 `json:"low,omitempty"`
	// High is that of the item's largest value; it answers > and >=.
	High []float64 `json:"high,omitempty"`
	// Values counts the items by value, each value under its shortest
	// decimal text (NumericKey); it answers =.
	Values ValueCounts `json:"values"`
}

// ValueCounts counts an attribute's items by value: exactly for the most
// common values, with the remainder spread evenly over the remaining
// distinct values.
type ValueCounts struct {
	// MCV maps each of the most common values to the number of items with a
	// tuple carrying it. Only values shared by two items or more are listed:
	// a value of one item is described exactly by the tail.
	MCV map[string]float64 `json:"mcv,omitempty"`
	// OtherCount and OtherDistinct describe the tail: (item, value) pairs
	// not under MCV, and the distinct values among them.
	OtherCount    float64 `json:"otherCount,omitempty"`
	OtherDistinct float64 `json:"otherDistinct,omitempty"`
}

// NumericKey is the text a numeric value goes by in NumericStats.Values.
func NumericKey(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// size is the encoded size of the counts, by Summary.Size's measure.
func (c *ValueCounts) size() int {
	n := 2 * 8
	for v := range c.MCV {
		n += len(v) + 8
	}
	return n
}

// Size approximates the summary's encoded size in bytes, the quantity an
// exchange that ships it is charged for: eight bytes a number, and the
// attribute names and listed values at their length.
func (s *Summary) Size() int {
	n := 3 * 8
	for attr, h := range s.Numeric {
		n += len(attr)
		if h != nil {
			n += 8*(len(h.Low)+len(h.High)) + h.Values.size()
		}
	}
	for attr, st := range s.Strings {
		n += len(attr)
		if st != nil {
			n += st.size()
		}
	}
	return n
}

// summarize builds the summary of the relation whose ordered view is o, in
// one pass over its groups. What accumulates is two numbers per item and
// numeric attribute, and a bounded counting map per attribute.
func summarize(schema *Schema, o *Ordered) *Summary {
	sum := &Summary{Numeric: map[string]*NumericStats{}, Strings: map[string]*ValueCounts{}}
	cols := schema.Columns()
	nums := make([]*numericAcc, len(cols))
	strs := make([]*valueAcc[string], len(cols))
	for i, col := range cols {
		switch col.Kind {
		case KindInt, KindFloat:
			nums[i] = &numericAcc{values: newValueAcc[float64]()}
		case KindString:
			strs[i] = newValueAcc[string]()
		}
	}
	for g := range o.Items {
		group := o.Group(g)
		sum.DistinctItems++
		sum.Tuples += len(group)
		for _, t := range group {
			for i, v := range t {
				sum.Bytes += v.Bytes()
				if strs[i] != nil {
					strs[i].add(v.Raw(), sum.DistinctItems)
				}
			}
		}
		for i, acc := range nums {
			if acc != nil {
				acc.add(group, i, sum.DistinctItems)
			}
		}
	}
	for i, col := range cols {
		switch {
		case nums[i] != nil:
			sum.Numeric[col.Name] = nums[i].finish()
		case strs[i] != nil:
			counts := strs[i].finish(func(v string) string { return v })
			sum.Strings[col.Name] = &counts
		}
	}
	return sum
}

// Summarize summarizes a relation held in memory.
func (r *Relation) Summarize() *Summary { return summarize(r.schema, r.Ordered()) }

// numericAcc collects one numeric attribute's distributions.
type numericAcc struct {
	low, high []float64
	values    *valueAcc[float64]
	scratch   []float64
}

// add folds one item's tuples in: its finite values of column col, the
// smallest and the largest of them.
func (a *numericAcc) add(group []Tuple, col, item int) {
	a.scratch = a.scratch[:0]
	for _, t := range group {
		if v := t[col].AsFloat(); !math.IsNaN(v) && !math.IsInf(v, 0) {
			a.scratch = append(a.scratch, v)
			a.values.add(v, item)
		}
	}
	if len(a.scratch) > 0 {
		a.low = append(a.low, slices.Min(a.scratch))
		a.high = append(a.high, slices.Max(a.scratch))
	}
}

func (a *numericAcc) finish() *NumericStats {
	return &NumericStats{Low: quantiles(a.low), High: quantiles(a.high), Values: a.values.finish(NumericKey)}
}

// quantiles sorts values and returns the boundaries of at most
// SummaryBuckets equi-depth buckets over them; nil for no values.
func quantiles(values []float64) []float64 {
	n := len(values)
	if n == 0 {
		return nil
	}
	slices.Sort(values)
	buckets := min(SummaryBuckets, max(1, n-1))
	q := make([]float64, buckets+1)
	for i := range q {
		q[i] = values[i*(n-1)/buckets]
	}
	return q
}

// itemCount is the number of items seen carrying a value, and the last of
// them, so that an item's second tuple with the value does not count again.
type itemCount struct {
	n    float64
	last int
}

// valueAcc counts one attribute's values by item.
type valueAcc[V cmp.Ordered] struct {
	counts   map[V]*itemCount
	overflow float64
}

func newValueAcc[V cmp.Ordered]() *valueAcc[V] {
	return &valueAcc[V]{counts: map[V]*itemCount{}}
}

// add counts value v for the item numbered item; items arrive one at a time.
func (a *valueAcc[V]) add(v V, item int) {
	c := a.counts[v]
	switch {
	case c == nil && len(a.counts) >= summaryTrackLimit:
		a.overflow++
	case c == nil:
		a.counts[v] = &itemCount{n: 1, last: item}
	case c.last != item:
		c.n++
		c.last = item
	}
}

// finish keeps the SummaryMCVLimit most common values, under the text key
// gives them, and folds the rest into the tail.
func (a *valueAcc[V]) finish(key func(V) string) ValueCounts {
	type valueCount struct {
		v V
		n float64
	}
	common := make([]valueCount, 0, len(a.counts))
	st := ValueCounts{OtherCount: a.overflow, OtherDistinct: a.overflow}
	for v, c := range a.counts {
		if c.n >= 2 {
			common = append(common, valueCount{v, c.n})
		} else {
			st.OtherCount += c.n
			st.OtherDistinct++
		}
	}
	slices.SortFunc(common, func(x, y valueCount) int {
		if x.n != y.n {
			return cmp.Compare(y.n, x.n)
		}
		return cmp.Compare(x.v, y.v)
	})
	for i, e := range common {
		if i < SummaryMCVLimit {
			if st.MCV == nil {
				st.MCV = map[string]float64{}
			}
			st.MCV[key(e.v)] = e.n
		} else {
			st.OtherCount += e.n
			st.OtherDistinct++
		}
	}
	return st
}

// Package set implements the item sets manipulated by the fusion-query
// mediator. An item is a merge-attribute value (a string). The mediator's
// local algebra over item sets — union, intersection and difference — is the
// complete set of local operations the paper allows in simple plans
// (Section 2.3) and in postoptimized plans (Section 4).
//
// Sets are immutable once built and keep their items sorted and
// deduplicated. Sorted order makes plan traces, golden tests and benchmark
// tables deterministic, and lets the binary set operations run in linear
// time via merging.
//
// The streaming form of the algebra (Iter, iter.go) moves items in sorted
// batches, and a batch is lent, not given: it is valid until the consumer's
// next Next or Close, after which its producer may fill the same buffer
// again (pool.go). Only the slice is lent — items are immutable strings —
// so a consumer that keeps items past that copies the slice; Collect does.
package set

import (
	"slices"
	"sort"
	"strings"
)

// Set is a sorted, duplicate-free collection of items. The zero value is the
// empty set and is ready to use.
type Set struct {
	items []string
}

// Empty is the empty set. Sets are immutable, so it can be shared freely.
var Empty = Set{}

// New builds a Set from the given items, sorting and deduplicating them. The
// input slice is not retained.
func New(items ...string) Set {
	if len(items) == 0 {
		return Set{}
	}
	return Adopt(slices.Clone(items))
}

// FromSorted adopts a slice that the caller guarantees is sorted and
// duplicate-free. It takes ownership of the slice. It is used by hot paths
// (set algebra, source scans over an ordered index) to avoid re-sorting.
func FromSorted(items []string) Set {
	return Set{items: items}
}

// Adopt builds a Set from a slice the caller gives up. Items already in
// strictly increasing order, which one pass establishes, are adopted as they
// stand; any others are sorted and deduplicated in place. It is for items
// that arrive in order but unvouched for, such as a peer's.
func Adopt(items []string) Set {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			sort.Strings(items)
			return Set{items: slices.Compact(items)}
		}
	}
	return Set{items: items}
}

// Len returns the number of items in the set.
func (s Set) Len() int { return len(s.items) }

// IsEmpty reports whether the set has no items.
func (s Set) IsEmpty() bool { return len(s.items) == 0 }

// Contains reports whether item is a member of the set.
func (s Set) Contains(item string) bool {
	i := sort.SearchStrings(s.items, item)
	return i < len(s.items) && s.items[i] == item
}

// Items returns the items in sorted order. The returned slice must not be
// modified; callers that need ownership should copy it.
func (s Set) Items() []string { return s.items }

// Slice returns a fresh copy of the items in sorted order.
func (s Set) Slice() []string {
	cp := make([]string, len(s.items))
	copy(cp, s.items)
	return cp
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return UnionAll(s, t) }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return Set{}
	}
	// Iterate over the smaller side when sizes are lopsided.
	small, large := s.items, t.items
	if len(small) > len(large) {
		small, large = large, small
	}
	out := make([]string, 0, len(small))
	if len(large) > 8*len(small) {
		// Binary-search mode for very lopsided inputs.
		for _, v := range small {
			k := sort.SearchStrings(large, v)
			if k < len(large) && large[k] == v {
				out = append(out, v)
			}
		}
		return Set{items: out}
	}
	i, j := 0, 0
	for i < len(small) && j < len(large) {
		switch {
		case small[i] < large[j]:
			i++
		case small[i] > large[j]:
			j++
		default:
			out = append(out, small[i])
			i++
			j++
		}
	}
	return Set{items: out}
}

// Diff returns s − t: the items of s that are not in t. The difference
// operation is the key postoptimization primitive of Section 4.
func (s Set) Diff(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return s
	}
	out := make([]string, 0, len(s.items))
	i, j := 0, 0
	for i < len(s.items) && j < len(t.items) {
		switch {
		case s.items[i] < t.items[j]:
			out = append(out, s.items[i])
			i++
		case s.items[i] > t.items[j]:
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, s.items[i:]...)
	return Set{items: out}
}

// Equal reports whether s and t contain exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s.items) != len(t.items) {
		return false
	}
	for i := range s.items {
		if s.items[i] != t.items[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every item of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s.items) > len(t.items) {
		return false
	}
	i, j := 0, 0
	for i < len(s.items) && j < len(t.items) {
		switch {
		case s.items[i] < t.items[j]:
			return false
		case s.items[i] > t.items[j]:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(s.items)
}

// Bytes returns the total size in bytes of the items, the quantity the
// network cost models charge for shipping a semijoin set.
func (s Set) Bytes() int {
	n := 0
	for _, v := range s.items {
		n += len(v)
	}
	return n
}

// String renders the set in the {a, b, c} notation used by the paper's
// worked examples.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s.items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v)
	}
	b.WriteByte('}')
	return b.String()
}

// IntersectAll folds Intersect over the given sets. It returns the empty set
// when called with no arguments.
func IntersectAll(sets ...Set) Set {
	if len(sets) == 0 {
		return Set{}
	}
	out := sets[0]
	for _, s := range sets[1:] {
		out = out.Intersect(s)
		if out.IsEmpty() {
			return out
		}
	}
	return out
}

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
// Both forms run the same kernels: one union (union.go) and one filter for
// ∩ and − (below), which a merge runs over its inputs' decided prefixes.
//
// A materialized result is a buffer of its own, which its caller owns
// alone: UnionWith, IntersectWith and DiffWith put a result that has items
// in a slice from their alloc, and call alloc for nothing else (an empty
// result is the zero Set). The other operators pass an exact-size alloc.
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
func (s Set) Intersect(t Set) Set { return IntersectAll(s, t) }

// Diff returns s − t: the items of s that are not in t. The difference
// operation is the key postoptimization primitive of Section 4.
func (s Set) Diff(t Set) Set { return DiffWith(exact, s, t) }

// DiffWith is s.Diff(t) with the result in a slice from alloc, asked for
// room for s.
func DiffWith(alloc func(n int) []string, s, t Set) Set {
	return Set{items: filterWith(alloc, len(s.items), s.items, t.items, false)}
}

// exact is the allocation of the exact-size forms: an empty slice of
// capacity n.
func exact(n int) []string { return make([]string, 0, n) }

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

// SubsetOf reports whether every item of s is in t: whether s − t keeps
// none.
func (s Set) SubsetOf(t Set) bool {
	i, _ := lead(s.items, t.items, false)
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

// IntersectAll returns the intersection of the given sets. It returns the
// empty set when called with no arguments.
func IntersectAll(sets ...Set) Set { return IntersectWith(exact, sets...) }

// IntersectWith is IntersectAll with the result in a slice from alloc,
// asked for room for the smallest input.
func IntersectWith(alloc func(n int) []string, sets ...Set) Set {
	small := smallest(sets)
	if small < 0 {
		return Set{}
	}
	n := len(sets[small].items)
	if len(sets) == 2 {
		return Set{items: filterWith(alloc, n, sets[small].items, sets[1-small].items, true)}
	}
	// One set, or more than two (no plan step's): alloc is asked for room
	// only once the sets are known to share an item, and the kernel writes
	// the result straight into it.
	if !share(sets) {
		return Set{}
	}
	return Set{items: intersect(alloc(n), sets)}
}

// share reports whether sets, of which there is at least one, have an item
// in common, without writing one down. It walks the smallest set and
// another as filter does, and seeks each item the two share in the rest,
// each from where its last seek ended: the first item all of them hold
// ends the walk, as does a set with none left past an item.
func share(sets []Set) bool {
	small := smallest(sets)
	a := sets[small].items
	if len(sets) == 1 {
		return len(a) > 0
	}
	pair := 1 - min(small, 1) // the first set that is not the smallest
	b := sets[pair].items
	var buf [8]int
	at := buf[:]
	if len(sets) > len(buf) {
		at = make([]int, len(sets))
	}
	for {
		i, j := lead(a, b, true)
		if i == len(a) {
			return false
		}
		x, held := a[i], true
		for k := 0; k < len(sets) && held; k++ {
			if k == small || k == pair {
				continue
			}
			s := sets[k].items
			at[k] = seek(s, at[k], x)
			if at[k] == len(s) {
				return false
			}
			held = s[at[k]] == x
		}
		if held {
			return true
		}
		a, b = a[i+1:], b[j:]
	}
}

// seek is the index of the first item of s at or after lo that is not
// below x, len(s) for none: it gallops from lo in doubling steps, since
// share seeks rising items a little apart, then binary-searches the last
// step.
func seek(s []string, lo int, x string) int {
	hi, step := lo, 1
	for hi < len(s) && s[hi] < x {
		lo, hi, step = hi+1, hi+step, 2*step
	}
	j, _ := slices.BinarySearch(s[lo:min(hi, len(s))], x)
	return lo + j
}

// smallest is the index of the first of the shortest sets, -1 for none.
func smallest(sets []Set) int {
	small := -1
	for i, s := range sets {
		if small < 0 || len(s.items) < len(sets[small].items) {
			small = i
		}
	}
	return small
}

// intersect is the intersection kernel: it appends to dst the items every
// one of sets holds. The smallest set is filtered by another into dst, and
// that by each other set in turn, in place. dst has room for the smallest
// set (a merge's batch, or IntersectWith's), so it is never reallocated.
func intersect(dst []string, sets []Set) []string {
	small := smallest(sets)
	if small < 0 || len(sets[small].items) == 0 {
		return dst
	}
	in := sets[small].items
	if len(sets) == 1 {
		return append(dst, in...)
	}
	n := len(dst)
	for i, s := range sets {
		if i != small && len(in) > 0 {
			dst = filter(dst[:n], in, s.items, true)
			in = dst[n:]
		}
	}
	return dst
}

// filterWith is filter into a slice from alloc, asked for room for n, or
// nil when filter keeps no item, alloc not called. lead walks to the first
// item filter keeps, and filter goes on from there.
func filterWith(alloc func(n int) []string, n int, a, b []string, keep bool) []string {
	i, j := lead(a, b, keep)
	if i == len(a) {
		return nil
	}
	return filter(alloc(n), a[i:], b[j:], keep)
}

// lead is where filter(dst, a, b, keep) keeps its first item, a[i], with
// b[:j] behind it; i is len(a) when it keeps none. It walks as filter does.
func lead(a, b []string, keep bool) (i, j int) {
	if len(b) > 8*len(a) {
		for i, x := range a {
			k, found := slices.BinarySearch(b[j:], x)
			if found == keep {
				return i, j
			}
			j += k
		}
		return len(a), j
	}
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i], b[j])
		if c <= 0 {
			if (c == 0) == keep {
				return i, j
			}
			i++
		}
		j += b2i(c >= 0)
	}
	if keep {
		return len(a), j
	}
	return i, j
}

// filter appends to dst the items of sorted a whose membership in sorted b
// is keep: a ∩ b, or a − b. dst may be a[:0], each item being written at or
// before where it was read. When b is over 8 times a's size, each item of a
// is binary-searched in what is left of b; otherwise the two are walked.
func filter(dst, a, b []string, keep bool) []string {
	if len(b) > 8*len(a) {
		for _, x := range a {
			j, found := slices.BinarySearch(b, x)
			if found == keep {
				dst = append(dst, x)
			}
			b = b[j:]
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i], b[j])
		if c <= 0 {
			if (c == 0) == keep {
				dst = append(dst, a[i])
			}
			i++
		}
		j += b2i(c >= 0)
	}
	if !keep {
		dst = append(dst, a[i:]...)
	}
	return dst
}

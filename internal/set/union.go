package set

import (
	"cmp"
	"strings"
	"sync"
)

// The union kernel. UnionAll is the mediator step X_i := ∪_{j=1..n} X_ij
// that closes every condition round (§2.3), Set.Union is its two-input case,
// and MergeUnion runs its core over each decided frontier of its inputs. It
// decides on integers, not on string compares: every item gets an
// abbreviated key from the bytes past the inputs' common prefix, and the
// merge compares keys, touching the strings only where two keys tie without
// the items being known equal.

// sentinel ends every run of keys. No item's key reaches it: an exact key's
// low byte is at most 7, and a long key is clamped below it.
const sentinel = ^uint64(0)

// be64 reads the first 8 bytes of s, the first the most significant.
func be64(s string) uint64 {
	_ = s[7]
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
}

// key8 abbreviates s to its first 8 bytes, left-aligned and zero-padded.
// key8(a) < key8(b) implies a < b; equal keys leave the order to the strings
// ("AB" and "AB\x00" share a key).
func key8(s string) uint64 {
	if len(s) >= 8 {
		return be64(s)
	}
	return padded(s)
}

// padded is key8 of a string shorter than 8 bytes.
func padded(s string) uint64 {
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return k
}

// keyRun writes the run of the items of input in, which share their first p
// bytes, to run (without its sentinel) and returns the length of the longest
// item. Each key is exact: the suffix past p left-aligned above its length,
// so that, among items sharing those p bytes, key order is string order and
// equal keys are equal items. That holds for suffixes of at most 7 bytes;
// what keyRun writes for a longer one means nothing, and the caller re-keys.
func keyRun(run []pair, items []string, in uint64, p int) (longest int) {
	for j, it := range items {
		longest = max(longest, len(it))
		n := len(it) - p
		var k uint64
		if len(it) >= 8 {
			// The suffix is the low n bytes of the item's last 8: shift
			// the 8-n above it out, 8 and 8*(7-n) bits at a time, so that
			// the shift the compiler sees is under 64.
			k = be64(it[len(it)-8:]) << 8 << (8 * uint(7-n) & 63)
		} else {
			k = padded(it[p:])
		}
		run[j] = pair{k | uint64(n), in<<32 | uint64(j)}
	}
	return longest
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commonPrefix is the length of the longest prefix every item of the
// non-empty sets shares. A set is sorted, so that is the prefix its first and
// last items share.
func commonPrefix(sets []Set) int {
	var ref string
	p := -1
	for _, s := range sets {
		if len(s.items) == 0 {
			continue
		}
		if p < 0 {
			ref, p = s.items[0], len(s.items[0])
		}
		for _, it := range [2]string{s.items[0], s.items[len(s.items)-1]} {
			n := min(p, len(it))
			i := 0
			for i < n && it[i] == ref[i] {
				i++
			}
			p = i
		}
	}
	return max(p, 0)
}

// pair is an item in a run: its key, and its ref, the input's index above
// the item's index within it.
type pair struct{ key, ref uint64 }

// unionScratch is one union's working memory, none of it pointers: two
// generations of runs, each run a sorted sequence of pairs ended by a
// sentinel key, and where the current generation's runs start. It is pooled,
// and a buffer too small for a call is replaced by a larger one.
type unionScratch struct {
	runs   [2][]pair
	starts []int
}

var scratchPool = sync.Pool{New: func() any { return new(unionScratch) }}

// resize returns s with length n. When s is too small it is reallocated
// with room for n or twice what it had, whichever is more, so that a
// scratch serving unions of growing sizes is regrown a few times, not at
// every larger one, and a merge's first scratch is its size (a power of two
// above k·maxCut pairs would double it).
func resize[T pair | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// UnionAll returns the union of the given sets in a slice of exactly its
// length.
func UnionAll(sets ...Set) Set { return UnionWith(exact, sets...) }

// UnionWith is UnionAll with the result in a slice from alloc, asked for
// room for exactly the result: Alloc, say, for a caller that gives the
// buffer back when the result dies. A union of one non-empty input is a
// copy of it.
func UnionWith(alloc func(n int) []string, sets ...Set) Set {
	runs, live, total := runsOf(sets)
	switch runs {
	case 0:
		return Set{}
	case 1:
		return Set{items: append(alloc(total), sets[live].items...)}
	}
	sc := scratchPool.Get().(*unionScratch)
	defer scratchPool.Put(sc)
	run := sc.union(sets, runs, total)
	return Set{items: gather(alloc(len(run)), sets, run)}
}

// runsOf counts the non-empty sets and their items, and names the last
// non-empty one.
func runsOf(sets []Set) (runs, live, total int) {
	for i, s := range sets {
		if len(s.items) > 0 {
			live, runs, total = i, runs+1, total+len(s.items)
		}
	}
	return runs, live, total
}

// union is the kernel: it merges sets, runs of them non-empty (at least
// two) with at most room items among them, into one run of sc's, and
// returns that run without its sentinel. It is valid until sc's next union.
//
// Keys: p is the inputs' common prefix. When no item is more than p+7 bytes
// long, each item's key is keyRun's exact one and the merge never reads a
// string. Otherwise it is the first 8 bytes past p (key8, clamped below the
// sentinel), and keys that tie are told apart by their strings.
//
// Merge: each non-empty input is a run of pairs, and runs merge two at a
// time, level by level, until one is left.
func (sc *unionScratch) union(sets []Set, runs, room int) []pair {
	p := commonPrefix(sets)
	for g := range sc.runs {
		sc.runs[g] = resize(sc.runs[g], room+runs)
	}
	sc.starts = resize(sc.starts, runs+1)
	starts := sc.starts

	run := sc.runs[0]
	at, r, longest := 0, 0, 0
	for i, s := range sets {
		if len(s.items) == 0 {
			continue
		}
		starts[r], r = at, r+1
		longest = max(longest, keyRun(run[at:], s.items, uint64(i), p))
		at += len(s.items)
		run[at] = pair{key: sentinel}
		at++
	}
	starts[r] = at
	exact := longest-p <= 7
	if !exact {
		for q := 0; q < runs; q++ {
			for x := starts[q]; x < starts[q+1]-1; x++ {
				run[x].key = min(key8(item(sets, run[x].ref)[p:]), sentinel-1)
			}
		}
	}

	src := 0
	for ; runs > 1; runs = (runs + 1) / 2 {
		from, to := sc.runs[src], sc.runs[1-src]
		at := 0
		for q := 0; 2*q < runs; q++ {
			lo, mid := starts[2*q], starts[2*q+1]
			hi := mid
			if 2*q+1 < runs {
				hi = starts[2*q+2]
			}
			starts[q] = at
			if hi == mid {
				at += copy(to[at:], from[lo:mid])
			} else if exact {
				at = merge(from, lo, mid, to, at)
			} else {
				at = mergeTied(from, lo, mid, to, at, sets)
			}
		}
		starts[(runs+1)/2] = at
		src = 1 - src
	}
	return sc.runs[src][:starts[1]-1]
}

// gather appends to dst the items the pairs of run name in sets.
func gather(dst []string, sets []Set, run []pair) []string {
	n := len(dst)
	dst = dst[:n+len(run)]
	for j, x := range run {
		dst[n+j] = item(sets, x.ref)
	}
	return dst
}

// item is the item a pair's ref names.
func item(sets []Set, ref uint64) string { return sets[ref>>32].items[uint32(ref)] }

// merge writes the union of the runs of from at i and at j, each ended by a
// sentinel key, to to at n, and returns where what it wrote ends, sentinel
// included. Equal keys are equal items, so keys decide alone, and nothing in
// the loop branches on them.
func merge(from []pair, i, j int, to []pair, n int) int {
	for {
		x, y := from[i], from[j]
		if x.key&y.key == sentinel {
			break
		}
		lt, gt := x.key < y.key, x.key > y.key
		if gt {
			x = y
		}
		to[n] = x
		n++
		i += b2i(!gt)
		j += b2i(!lt)
	}
	to[n] = pair{key: sentinel}
	return n + 1
}

// mergeTied is merge for keys that may tie between different items: two
// refs whose keys are equal are ordered by their items in sets. It is a loop
// of its own because a call inside merge's loop, even one never made, makes
// the compiler keep merge's indexes on the stack.
func mergeTied(from []pair, i, j int, to []pair, n int, sets []Set) int {
	for {
		x, y := from[i], from[j]
		if x.key&y.key == sentinel {
			break
		}
		c := cmp.Compare(x.key, y.key)
		if c == 0 {
			c = strings.Compare(item(sets, x.ref), item(sets, y.ref))
		}
		if c > 0 {
			x = y
		}
		to[n] = x
		n++
		i += b2i(c <= 0)
		j += b2i(c >= 0)
	}
	to[n] = pair{key: sentinel}
	return n + 1
}

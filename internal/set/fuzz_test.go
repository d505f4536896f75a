package set

import (
	"math/rand"
	"sort"
	"testing"
)

// The reference algebra: maps and a sort, sharing nothing with the kernels.

func referenceSorted(seen map[string]int, want int) Set {
	items := make([]string, 0, len(seen))
	for it, n := range seen {
		if n >= want {
			items = append(items, it)
		}
	}
	sort.Strings(items)
	return FromSorted(items)
}

func referenceUnion(sets []Set) Set {
	seen := map[string]int{}
	for _, s := range sets {
		for _, it := range s.Items() {
			seen[it] = 1
		}
	}
	return referenceSorted(seen, 1)
}

func referenceIntersect(sets []Set) Set {
	seen := map[string]int{}
	for _, s := range sets {
		for _, it := range s.Items() {
			seen[it]++
		}
	}
	return referenceSorted(seen, max(len(sets), 1))
}

func referenceDiff(a, b Set) Set {
	seen := map[string]int{}
	for _, it := range a.Items() {
		seen[it] = 1
	}
	for _, it := range b.Items() {
		delete(seen, it)
	}
	return referenceSorted(seen, 1)
}

// decodeSets turns fuzz bytes into up to six sets. Each item is a control
// byte and a body: bit 0x20 starts a new set, bit 0x40 says there is no item
// (an empty set), the low five bits mod 17 are the body's length (0–16), and
// the body's bytes, NULs included, follow prefix.
func decodeSets(prefix string, data []byte) []Set {
	var inputs [][]string
	inputs = append(inputs, nil)
	for i := 0; i < len(data); {
		ctl := data[i]
		i++
		if ctl&0x20 != 0 && len(inputs) < 6 {
			inputs = append(inputs, nil)
		}
		if ctl&0x40 != 0 {
			continue
		}
		n := min(int(ctl&0x1f)%17, len(data)-i)
		last := len(inputs) - 1
		inputs[last] = append(inputs[last], prefix+string(data[i:i+n]))
		i += n
	}
	sets := make([]Set, len(inputs))
	for i, items := range inputs {
		sets[i] = New(items...)
	}
	return sets
}

// encodeSets is decodeSets' inverse, for the seed corpus.
func encodeSets(inputs ...[]string) []byte {
	var data []byte
	for i, items := range inputs {
		for j, it := range items {
			ctl := byte(len(it))
			if i > 0 && j == 0 {
				ctl |= 0x20
			}
			data = append(append(data, ctl), it...)
		}
		if i > 0 && len(items) == 0 {
			data = append(data, 0x60)
		}
	}
	return data
}

// startsIn says r's items start in the backing array of one of sets.
func startsIn(r Set, sets ...Set) bool {
	if cap(r.items) == 0 {
		return false
	}
	first := &r.items[:1][0]
	for _, s := range sets {
		all := s.items[:cap(s.items)]
		for i := range all {
			if &all[i] == first {
				return true
			}
		}
	}
	return false
}

// FuzzSetAlgebra checks the kernels, materialized (UnionAll, the folded
// Union, IntersectAll, Intersect, Diff, and the forms that take their
// allocation) and streaming (the merges, which run the same kernels over one
// frontier after another), against the reference on arbitrary byte items:
// NULs, common prefixes past 8 bytes, suffixes of 0–16 bytes, empty inputs
// and duplicates across inputs, each input streamed at its own batch size. A
// batch size is mostly 1–9 and sometimes up to 64, so that one input's
// frontier can span several of another's batches. Every materialized result
// is held to the package's contract: it starts in no input's buffer, and it
// has a buffer exactly when it has items — the one the forms that take
// their allocation asked for, once.
func FuzzSetAlgebra(f *testing.F) {
	f.Add("", encodeSets([]string{"AB"}, []string{"AB\x00"}), int64(1))
	f.Add("P", encodeSets([]string{"1234567", "x"}, []string{"12345678", "1234567"}), int64(2))
	f.Add("", encodeSets(nil, []string{"only", "one", "input"}, nil), int64(3))
	f.Add("common/prefix/longer/than/8/", encodeSets([]string{"a", "b\x00", ""}, []string{"", "b", "zzzzzzzzzzzzzzzz"}, []string{"b\x00"}), int64(4))
	f.Add("ID", encodeSets([]string{"000001", "000003"}, []string{"000002", "000003"}, []string{"000003", "000004"}), int64(5))
	f.Add("", encodeSets([]string{"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00"}, []string{"\xff\xff\xff\xff\xff\xff\xff\xff\x01"}), int64(6))
	// An item of eight 0xff bytes beside an empty one: the prefix is empty,
	// so the union re-keys, and the item's first key had the sentinel's bits.
	f.Add("", encodeSets(nil, []string{"\xff\xff\xff\xff\xff\xff\xff\xff"}, []string{""}), int64(7))
	// One input, and an empty subtrahend: results that are copies.
	f.Add("", encodeSets([]string{"a", "b"}), int64(8))
	f.Fuzz(func(t *testing.T, prefix string, data []byte, seed int64) {
		if len(prefix) > 32 {
			prefix = prefix[:32]
		}
		sets := decodeSets(prefix, data)
		r := rand.New(rand.NewSource(seed))
		a, b := sets[0], Empty
		if len(sets) > 1 {
			b = sets[1]
		}
		// exact checks a result of an exact-size form: want, in a buffer of
		// its own when it has items, and in none when it has not.
		exact := func(name string, got, want Set, ins ...Set) {
			t.Helper()
			if !got.Equal(want) || startsIn(got, ins...) || (cap(got.items) > 0) != (got.Len() > 0) {
				t.Fatalf("%s(%q) = %q (cap %d, in an input: %v), want %q", name, ins, got.Items(), cap(got.items), startsIn(got, ins...), want.Items())
			}
		}
		// with runs a form that takes its allocation, from the pool, and
		// checks it as exact does, and that it asked for room once, for
		// size, exactly when the result has items; what it asked for goes
		// back.
		with := func(name string, op func(alloc func(int) []string) Set, size int, want Set, ins ...Set) {
			t.Helper()
			calls, asked := 0, -1
			got := op(func(n int) []string { calls, asked = calls+1, n; return Alloc(n) })
			exact(name, got, want, ins...)
			if calls != b2i(got.Len() > 0) || calls > 0 && asked != size {
				t.Fatalf("%s(%q) = %q after %d calls to alloc, the last for %d; want one for %d exactly when the result has items", name, ins, got.Items(), calls, asked, size)
			}
			Release(got)
		}

		want := referenceUnion(sets)
		exact("UnionAll", UnionAll(sets...), want, sets...)
		folded := Empty
		for _, s := range sets {
			next := folded.Union(s)
			exact("Union", next, referenceUnion([]Set{folded, s}), folded, s)
			folded = next
		}
		if !folded.Equal(want) {
			t.Fatalf("folded Union(%q) = %q, want %q", sets, folded.Items(), want.Items())
		}
		with("UnionWith", func(alloc func(int) []string) Set { return UnionWith(alloc, sets...) }, want.Len(), want, sets...)

		wantInter := referenceIntersect(sets)
		exact("IntersectAll", IntersectAll(sets...), wantInter, sets...)
		least := sets[smallest(sets)].Len()
		with("IntersectWith", func(alloc func(int) []string) Set { return IntersectWith(alloc, sets...) }, least, wantInter, sets...)
		exact("Intersect", a.Intersect(b), referenceIntersect([]Set{a, b}), a, b)

		wantDiff := referenceDiff(a, b)
		exact("Diff", a.Diff(b), wantDiff, a, b)
		with("DiffWith", func(alloc func(int) []string) Set { return DiffWith(alloc, a, b) }, a.Len(), wantDiff, a, b)

		size := func() int {
			if r.Intn(4) == 0 {
				return 1 + r.Intn(64)
			}
			return 1 + r.Intn(9)
		}
		iters := func() []Iter {
			its := make([]Iter, len(sets))
			for i, s := range sets {
				its[i] = IterOf(s, size())
			}
			return its
		}
		batch := size()
		if got := FromSorted(drain(t, MergeUnion(batch, iters()...), batch)); !got.Equal(want) {
			t.Fatalf("MergeUnion(%q) = %q, want %q", sets, got.Items(), want.Items())
		}
		if got := FromSorted(drain(t, MergeIntersect(batch, iters()...), batch)); !got.Equal(wantInter) {
			t.Fatalf("MergeIntersect(%q) = %q, want %q", sets, got.Items(), wantInter.Items())
		}
		diff := MergeDiff(batch, IterOf(a, size()), IterOf(b, size()))
		if got := FromSorted(drain(t, diff, batch)); !got.Equal(wantDiff) {
			t.Fatalf("MergeDiff(%q, %q) = %q, want %q", a, b, got.Items(), wantDiff.Items())
		}
	})
}

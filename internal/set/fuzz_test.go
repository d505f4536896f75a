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

// FuzzSetAlgebra checks the kernels, materialized (UnionAll, the folded
// Union, IntersectAll, IntersectOver into each input, Intersect, Diff, and
// the forms that take their allocation) and streaming (the merges, which run
// the same kernels over one frontier after another), against the reference
// on arbitrary byte items: NULs, common prefixes past 8 bytes, suffixes of
// 0–16 bytes, empty inputs and duplicates across inputs, each input streamed
// at its own batch size. A batch size is mostly 1–9 and sometimes up to 64,
// so that one input's frontier can span several of another's batches.
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
	f.Fuzz(func(t *testing.T, prefix string, data []byte, seed int64) {
		if len(prefix) > 32 {
			prefix = prefix[:32]
		}
		sets := decodeSets(prefix, data)
		r := rand.New(rand.NewSource(seed))

		want := referenceUnion(sets)
		got := UnionAll(sets...)
		if !got.Equal(want) {
			t.Fatalf("UnionAll(%q) = %q, want %q", sets, got.Items(), want.Items())
		}
		folded := Empty
		for _, s := range sets {
			folded = folded.Union(s)
		}
		if !folded.Equal(want) {
			t.Fatalf("folded Union(%q) = %q, want %q", sets, folded.Items(), want.Items())
		}
		wantInter := referenceIntersect(sets)
		if got := IntersectAll(sets...); !got.Equal(wantInter) {
			t.Fatalf("IntersectAll(%q) = %q, want %q", sets, got.Items(), wantInter.Items())
		}
		// The forms that take their allocation, from the pool here: a union
		// asks for its exact size, ∩ and − for their bound, and what they
		// asked for goes back.
		asked := -1
		pooled := func(n int) []string { asked = n; return Alloc(n) }
		if got := UnionWith(pooled, sets...); !got.Equal(want) || asked >= 0 && asked != got.Len() {
			t.Fatalf("UnionWith(%q) = %q after asking for %d, want %q", sets, got.Items(), asked, want.Items())
		} else if asked >= 0 {
			Release(got)
		}
		asked = -1
		if got := IntersectWith(pooled, sets...); !got.Equal(wantInter) {
			t.Fatalf("IntersectWith(%q) = %q, want %q", sets, got.Items(), wantInter.Items())
		} else if asked >= 0 {
			Release(got)
		}
		for into := range sets {
			owned := make([]Set, len(sets))
			copy(owned, sets)
			owned[into] = New(sets[into].Items()...)
			buf := owned[into].Items()
			got := IntersectOver(into, owned...)
			if !got.Equal(wantInter) {
				t.Fatalf("IntersectOver(%d, %q) = %q, want %q", into, sets, got.Items(), wantInter.Items())
			}
			if got.Len() > 0 && &got.Items()[0] != &buf[0] {
				t.Fatalf("IntersectOver(%d, %q) is not in the buffer of its input", into, sets)
			}
		}
		a, b := sets[0], Empty
		if len(sets) > 1 {
			b = sets[1]
		}
		if got, want := a.Intersect(b), referenceIntersect([]Set{a, b}); !got.Equal(want) {
			t.Fatalf("Intersect(%q, %q) = %q, want %q", a, b, got.Items(), want.Items())
		}
		wantDiff := referenceDiff(a, b)
		if got := a.Diff(b); !got.Equal(wantDiff) {
			t.Fatalf("Diff(%q, %q) = %q, want %q", a, b, got.Items(), wantDiff.Items())
		}
		asked = -1
		if got := DiffWith(pooled, a, b); !got.Equal(wantDiff) {
			t.Fatalf("DiffWith(%q, %q) = %q, want %q", a, b, got.Items(), wantDiff.Items())
		} else if asked >= 0 {
			Release(got)
		}

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

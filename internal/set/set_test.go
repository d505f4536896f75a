package set

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDeduplicatesAndSorts(t *testing.T) {
	s := New("T21", "J55", "T21", "A01", "J55")
	want := []string{"A01", "J55", "T21"}
	if !reflect.DeepEqual(s.Slice(), want) {
		t.Fatalf("New() = %v, want %v", s.Slice(), want)
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
}

func TestNewEmpty(t *testing.T) {
	s := New()
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatalf("New() should be empty, got %v", s)
	}
	if s.String() != "{}" {
		t.Fatalf("String() = %q, want {}", s.String())
	}
}

func TestNewDoesNotRetainInput(t *testing.T) {
	in := []string{"b", "a"}
	s := New(in...)
	in[0] = "zzz"
	if got := s.Slice(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("input mutation leaked into set: %v", got)
	}
}

func TestContains(t *testing.T) {
	s := New("J55", "T21", "T80")
	for _, v := range []string{"J55", "T21", "T80"} {
		if !s.Contains(v) {
			t.Errorf("Contains(%q) = false, want true", v)
		}
	}
	for _, v := range []string{"", "A00", "T22", "Z99"} {
		if s.Contains(v) {
			t.Errorf("Contains(%q) = true, want false", v)
		}
	}
}

func TestUnionPaperExample(t *testing.T) {
	// Figure 1 walkthrough: items with a dui violation across the 3 DMVs.
	x11 := New("J55", "T80")
	x12 := New("T21")
	x13 := New()
	got := UnionAll(x11, x12, x13)
	if want := New("J55", "T21", "T80"); !got.Equal(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
}

func TestIntersectPaperExample(t *testing.T) {
	dui := New("J55", "T80", "T21")
	sp := New("T21", "J55", "T11", "S07")
	got := dui.Intersect(sp)
	if want := New("J55", "T21"); !got.Equal(want) {
		t.Fatalf("intersect = %v, want %v (the paper's answer)", got, want)
	}
}

func TestDiffPaperExample(t *testing.T) {
	// Section 1 postoptimization walkthrough: X1 − Y1.
	x1 := New("J55", "T80", "T21")
	y1 := New("T21")
	got := x1.Diff(y1)
	if want := New("J55", "T80"); !got.Equal(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
}

func TestDiffEdgeCases(t *testing.T) {
	s := New("a", "b", "c")
	if got := s.Diff(Empty); !got.Equal(s) {
		t.Errorf("s - {} = %v, want %v", got, s)
	}
	if got := Empty.Diff(s); !got.IsEmpty() {
		t.Errorf("{} - s = %v, want {}", got)
	}
	if got := s.Diff(s); !got.IsEmpty() {
		t.Errorf("s - s = %v, want {}", got)
	}
}

// TestResultIsItsOwn: the results that could be their input as it stands —
// a union of one non-empty set, a difference from the empty set, an
// intersection of one set — are copies, so writing into one leaves its
// input alone. A pooled result can go back without touching the input.
func TestResultIsItsOwn(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(in Set) Set
	}{
		{"UnionWith", func(in Set) Set { return UnionWith(Alloc, Empty, in) }},
		{"UnionAll", func(in Set) Set { return UnionAll(in, Empty) }},
		{"DiffWith", func(in Set) Set { return DiffWith(Alloc, in, Empty) }},
		{"Diff", func(in Set) Set { return in.Diff(Empty) }},
		{"IntersectWith", func(in Set) Set { return IntersectWith(Alloc, in) }},
		{"IntersectAll", func(in Set) Set { return IntersectAll(in) }},
	} {
		in := New("a", "b", "c")
		got := tc.op(in)
		if !got.Equal(in) {
			t.Fatalf("%s = %v, want %v", tc.name, got, in)
		}
		got.items[0] = "z"
		Release(got)
		if want := New("a", "b", "c"); !in.Equal(want) {
			t.Fatalf("%s: writing into the result made its input %v", tc.name, in)
		}
	}
}

func TestIntersectLopsided(t *testing.T) {
	// Exercise the binary-search path (large side > 8x small side).
	large := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		large = append(large, string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	l := New(large...)
	s := New(large[3], large[57], "not-there")
	got := s.Intersect(l)
	if want := New(large[3], large[57]); !got.Equal(want) {
		t.Fatalf("lopsided intersect = %v, want %v", got, want)
	}
}

func TestSubsetOf(t *testing.T) {
	s := New("a", "c")
	tt := New("a", "b", "c")
	if !s.SubsetOf(tt) {
		t.Error("SubsetOf should be true")
	}
	if tt.SubsetOf(s) {
		t.Error("superset reported as subset")
	}
	if !Empty.SubsetOf(s) {
		t.Error("empty set should be subset of anything")
	}
	if !s.SubsetOf(s) {
		t.Error("set should be subset of itself")
	}
	if New("a", "z").SubsetOf(tt) {
		t.Error("{a,z} is not a subset of {a,b,c}")
	}
}

func TestBytes(t *testing.T) {
	s := New("J55", "T8")
	if got := s.Bytes(); got != 5 {
		t.Fatalf("Bytes() = %d, want 5", got)
	}
	if Empty.Bytes() != 0 {
		t.Fatal("empty set should have 0 bytes")
	}
}

func TestString(t *testing.T) {
	s := New("T21", "J55")
	if got := s.String(); got != "{J55, T21}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestIntersectAllEmptyArgs(t *testing.T) {
	if got := IntersectAll(); !got.IsEmpty() {
		t.Fatalf("IntersectAll() = %v, want {}", got)
	}
}

func TestIntersectAllShortCircuit(t *testing.T) {
	got := IntersectAll(New("a"), New("b"), New("a"))
	if !got.IsEmpty() {
		t.Fatalf("IntersectAll = %v, want {}", got)
	}
}

func TestFromSortedAdoptsSlice(t *testing.T) {
	s := FromSorted([]string{"a", "b"})
	if s.Len() != 2 || !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("FromSorted gave %v", s)
	}
}

// TestAdopt: a strictly increasing slice becomes the set as it stands, with
// no copy; anything else is put right, so the result is always New's.
func TestAdopt(t *testing.T) {
	sorted := []string{"a", "b", "c"}
	if s := Adopt(sorted); !s.Equal(New("a", "b", "c")) || &s.Items()[0] != &sorted[0] {
		t.Fatalf("Adopt of a sorted slice = %v, want the slice itself", s)
	}
	for _, items := range [][]string{nil, {}, {"b", "a"}, {"a", "a"}, {"a", "c", "b", "c", "a"}} {
		if got, want := Adopt(append([]string(nil), items...)), New(items...); !got.Equal(want) || got.Len() != want.Len() {
			t.Errorf("Adopt(%q) = %v, want %v", items, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { Adopt(sorted) }); allocs != 0 {
		t.Errorf("Adopt of a sorted slice allocates %.0f times, want 0", allocs)
	}
}

// ---- property-based tests -------------------------------------------------

// randomSet converts arbitrary fuzz input into a Set over a small alphabet so
// collisions between generated sets are common enough to be interesting.
func randomSet(keys []uint8) Set {
	items := make([]string, len(keys))
	for i, k := range keys {
		items[i] = string(rune('a' + k%16))
	}
	return New(items...)
}

func TestPropUnionCommutative(t *testing.T) {
	f := func(a, b []uint8) bool {
		x, y := randomSet(a), randomSet(b)
		return x.Union(y).Equal(y.Union(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionAssociative(t *testing.T) {
	f := func(a, b, c []uint8) bool {
		x, y, z := randomSet(a), randomSet(b), randomSet(c)
		return x.Union(y).Union(z).Equal(x.Union(y.Union(z)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectCommutative(t *testing.T) {
	f := func(a, b []uint8) bool {
		x, y := randomSet(a), randomSet(b)
		return x.Intersect(y).Equal(y.Intersect(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDeMorganViaDiff(t *testing.T) {
	// a − (b ∪ c) == (a − b) ∩ (a − c)
	f := func(a, b, c []uint8) bool {
		x, y, z := randomSet(a), randomSet(b), randomSet(c)
		return x.Diff(y.Union(z)).Equal(x.Diff(y).Intersect(x.Diff(z)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDiffPartition(t *testing.T) {
	// (a ∩ b) ∪ (a − b) == a, and the two parts are disjoint.
	f := func(a, b []uint8) bool {
		x, y := randomSet(a), randomSet(b)
		in, out := x.Intersect(y), x.Diff(y)
		return in.Union(out).Equal(x) && in.Intersect(out).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubsetConsistency(t *testing.T) {
	f := func(a, b []uint8) bool {
		x, y := randomSet(a), randomSet(b)
		return x.Intersect(y).SubsetOf(x) && x.SubsetOf(x.Union(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropInvariantSortedUnique(t *testing.T) {
	f := func(a, b []uint8) bool {
		for _, s := range []Set{randomSet(a), randomSet(b), randomSet(a).Union(randomSet(b)), randomSet(a).Diff(randomSet(b))} {
			items := s.Items()
			if !sort.StringsAreSorted(items) {
				return false
			}
			for i := 1; i < len(items); i++ {
				if items[i] == items[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---- benchmarks (ablation: merge-based algebra on sorted slices) ----------

func benchSets(n int) (Set, Set) {
	r := rand.New(rand.NewSource(1))
	a := make([]string, n)
	b := make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = itemName(r.Intn(3 * n))
		b[i] = itemName(r.Intn(3 * n))
	}
	return New(a...), New(b...)
}

func itemName(i int) string {
	const digits = "0123456789"
	buf := [8]byte{'I', 'D', '0', '0', '0', '0', '0', '0'}
	for p := 7; p > 1 && i > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf[:])
}

func BenchmarkUnion1k(b *testing.B) {
	x, y := benchSets(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

func BenchmarkIntersect1k(b *testing.B) {
	x, y := benchSets(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Intersect(y)
	}
}

func BenchmarkDiff1k(b *testing.B) {
	x, y := benchSets(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Diff(y)
	}
}

// TestIntersectManySets: ∩ of more sets than share keeps its seeks' places
// for on the stack (the fuzz target draws at most six) is the reference's,
// and asks alloc for room once exactly when it has items.
func TestIntersectManySets(t *testing.T) {
	for _, common := range []bool{true, false} {
		var sets []Set
		for k := 2; k < 14; k++ {
			s := mkSet(400, k, 0)
			if !common && k == 13 {
				s = mkSet(400, k, 1)
			}
			sets = append(sets, s)
		}
		want := referenceIntersect(sets)
		calls := 0
		got := IntersectWith(func(n int) []string { calls++; return Alloc(n) }, sets...)
		if !got.Equal(want) || calls != b2i(want.Len() > 0) {
			t.Fatalf("∩ of %d sets = %v after %d calls to alloc, want %v", len(sets), got, calls, want)
		}
		if common && want.IsEmpty() {
			t.Fatal("the sets share no item; the case that shares one is not tested")
		}
		Release(got)
	}
}

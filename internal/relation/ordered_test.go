package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomRelation inserts n tuples over a universe small enough that most
// items carry several tuples; D records the insertion position.
func randomRelation(t testing.TB, rng *rand.Rand, n, universe int) *Relation {
	t.Helper()
	r := NewRelation(MustSchema("L", Column{"L", KindString}, Column{"V", KindString}, Column{"D", KindInt}))
	for i := 0; i < n; i++ {
		r.MustInsert(String(fmt.Sprintf("I%03d", rng.Intn(universe))), String("v"), Int(int64(i)))
	}
	return r
}

// checkOrdered holds the view to its contract: sorted distinct items, every
// tuple exactly once, each group holding its item's tuples in insertion
// order and clipped to the group, each column vector its column of Rows.
func checkOrdered(t *testing.T, r *Relation) {
	t.Helper()
	o := r.Ordered()
	if !sort.StringsAreSorted(o.Items) {
		t.Fatalf("Items not sorted: %v", o.Items)
	}
	if len(o.Start) != len(o.Items)+1 || len(o.Rows) != r.Len() || o.Start[len(o.Items)] != r.Len() {
		t.Fatalf("shape: %d items, %d starts, %d rows, relation has %d", len(o.Items), len(o.Start), len(o.Rows), r.Len())
	}
	for i, row := range o.Rows {
		if o.Cols[0].Strings[i] != row[0].Str() || o.Cols[1].Strings[i] != row[1].Str() || o.Cols[2].Ints[i] != row[2].IntVal() {
			t.Fatalf("row %d is %v, its columns hold %q, %q, %d", i, row, o.Cols[0].Strings[i], o.Cols[1].Strings[i], o.Cols[2].Ints[i])
		}
	}
	want := map[string][]int64{}
	for _, row := range r.Rows() {
		want[r.Item(row)] = append(want[r.Item(row)], row[2].IntVal())
	}
	if len(want) != len(o.Items) {
		t.Fatalf("%d distinct items in view, relation has %d", len(o.Items), len(want))
	}
	for g, item := range o.Items {
		if g > 0 && o.Items[g-1] == item {
			t.Fatalf("item %s repeated", item)
		}
		group := o.Group(g)
		if cap(group) != len(group) {
			t.Fatalf("group %s not clipped: len %d cap %d", item, len(group), cap(group))
		}
		var got []int64
		for _, row := range group {
			if r.Item(row) != item {
				t.Fatalf("group %s holds a tuple of %s", item, r.Item(row))
			}
			got = append(got, row[2].IntVal())
		}
		if !reflect.DeepEqual(got, want[item]) {
			t.Fatalf("group %s in order %v, inserted in order %v", item, got, want[item])
		}
	}
}

func TestOrderedView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r := randomRelation(t, rng, rng.Intn(200), 1+rng.Intn(40))
		checkOrdered(t, r)
		if r.Ordered() != r.Ordered() {
			t.Fatal("view rebuilt without an Insert in between")
		}
	}
	checkOrdered(t, NewRelation(MustSchema("L", Column{"L", KindString})))
}

// TestOrderedColumnsOfEveryKind builds a view over one column of each kind.
func TestOrderedColumnsOfEveryKind(t *testing.T) {
	r := NewRelation(MustSchema("K", Column{"K", KindInt}, Column{"F", KindFloat}, Column{"S", KindString}, Column{"B", KindBool}))
	r.MustInsert(Int(2), Float(0.5), String("b"), Bool(true))
	r.MustInsert(Int(10), Float(-1), String(""), Bool(false))
	r.MustInsert(Int(2), Float(7), String("c"), Bool(false))
	o := r.Ordered()
	// Items order as text, as sets of items do: "10" before "2".
	want := &Ordered{
		Items: []string{"10", "2"},
		Rows:  []Tuple{r.Row(1), r.Row(0), r.Row(2)},
		Start: []int{0, 1, 3},
		Cols: []Vector{
			{Ints: []int64{10, 2, 2}},
			{Floats: []float64{-1, 0.5, 7}},
			{Strings: []string{"", "b", "c"}},
			{Bools: []bool{false, true, false}},
		},
	}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("view = %+v, want %+v", o, want)
	}
}

// TestSeek holds the galloping search to a linear one from every starting
// group, for items in the view, between its items, beyond both ends and
// behind the start.
func TestSeek(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(6)), 120, 40)
	o := r.Ordered()
	probes := append([]string{"", "I", "I0005", "J"}, o.Items...)
	for from := 0; from <= len(o.Items); from++ {
		for _, item := range probes {
			want := from
			for want < len(o.Items) && o.Items[want] < item {
				want++
			}
			g, ok := o.Seek(from, item)
			if g != want || ok != (want < len(o.Items) && o.Items[want] == item) {
				t.Fatalf("Seek(%d, %q) = %d, %v; linear search stops at %d", from, item, g, ok, want)
			}
		}
	}
}

func TestOrderedInvalidatedByInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRelation(t, rng, 100, 20)
	before := r.Ordered()
	r.MustInsert(String("A-first"), String("v"), Int(100))
	r.MustInsert(String("I005"), String("v"), Int(101))
	if r.Ordered() == before {
		t.Fatal("Insert kept the stale view")
	}
	checkOrdered(t, r)
	if got := r.Ordered().Items[0]; got != "A-first" {
		t.Fatalf("Ordered().Items[0] = %s after inserting the smallest item", got)
	}
	rows := r.RowsWithItem("I005")
	if last := rows[len(rows)-1][2].IntVal(); last != 101 {
		t.Fatalf("RowsWithItem misses the tuple inserted after the first lookup: last D = %d", last)
	}
	if r.DistinctItems() != len(r.Ordered().Items) {
		t.Fatalf("DistinctItems = %d, view has %d", r.DistinctItems(), len(r.Ordered().Items))
	}
}

func TestOrderedConcurrentFirstUse(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(3)), 500, 60)
	views := make([]*Ordered, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = r.Ordered()
			_ = r.RowsWithItem("I007")
		}(i)
	}
	wg.Wait()
	for _, v := range views[1:] {
		if v != views[0] {
			t.Fatal("concurrent first uses built more than one view")
		}
	}
	checkOrdered(t, r)
}

func TestIndexLookupsDoNotAllocate(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(4)), 2000, 300)
	r.Ordered()
	var rows []Tuple
	n := 0
	if got := testing.AllocsPerRun(100, func() {
		rows = r.RowsWithItem("I123")
		n += r.Bytes() + r.DistinctItems()
	}); got != 0 {
		t.Fatalf("RowsWithItem+Bytes+DistinctItems allocate %.0f times per call, want 0", got)
	}
	if len(rows) == 0 || n == 0 {
		t.Fatal("lookup found nothing")
	}
}

func TestBytesIsRunningTotal(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(5)), 300, 50)
	want := 0
	for _, row := range r.Rows() {
		for _, v := range row {
			want += v.Bytes()
		}
	}
	if r.Bytes() != want {
		t.Fatalf("Bytes = %d, sum over values = %d", r.Bytes(), want)
	}
	if err := r.Insert(Tuple{String("x")}); err == nil || r.Bytes() != want {
		t.Fatalf("rejected Insert changed Bytes to %d (err %v)", r.Bytes(), err)
	}
}

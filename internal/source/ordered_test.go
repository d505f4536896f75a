package source

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/oem"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

var propSchema = relation.MustSchema("ID",
	relation.Column{Name: "ID", Kind: relation.KindString},
	relation.Column{Name: "A", Kind: relation.KindInt},
	relation.Column{Name: "B", Kind: relation.KindString},
)

// propConds covers every node kind at several selectivities.
var propConds = []cond.Cond{
	cond.MustParse("A < 10"),
	cond.MustParse("A < 50"),
	cond.MustParse("A >= 95"),
	cond.MustParse("B = 'x'"),
	cond.MustParse("B LIKE 'y%'"),
	cond.MustParse("A < 30 AND B != 'x'"),
	cond.MustParse("A < 5 OR B = 'z'"),
	cond.MustParse("NOT A < 90"),
	cond.MustParse("A IN (1, 2, 3, 50)"),
	cond.MustParse("A < 0"),
	cond.True{},
}

// trio holds the same tuples in one backend of each kind, with the handles
// that add a tuple to each.
type trio struct {
	rel      *relation.Relation
	kv       *KVBackend
	store    *oem.Store
	backends map[string]Backend
}

func newTrio() *trio {
	tr := &trio{rel: relation.NewRelation(propSchema), kv: NewKVBackend(propSchema), store: oem.NewStore()}
	tr.backends = map[string]Backend{
		"row": NewRowBackend(tr.rel),
		"kv":  tr.kv,
		"oem": NewOEMBackend(tr.store, oem.Mapping{Schema: propSchema}),
	}
	return tr
}

func (tr *trio) add(t testing.TB, tup relation.Tuple) {
	t.Helper()
	if err := tr.rel.Insert(tup); err != nil {
		t.Fatal(err)
	}
	if err := tr.kv.Put(tup); err != nil {
		t.Fatal(err)
	}
	tr.store.Add(recordObject(tup))
}

func recordObject(tup relation.Tuple) *oem.Object {
	return oem.Complex("rec", oem.Atomic("ID", tup[0]), oem.Atomic("A", tup[1]), oem.Atomic("B", tup[2]))
}

// fill adds n random tuples over a universe small enough that items carry
// several tuples each, so an item often matches only through a later one.
func (tr *trio) fill(t *testing.T, rng *rand.Rand, n, universe int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tr.add(t, relation.Tuple{
			relation.String(fmt.Sprintf("I%03d", rng.Intn(universe))),
			relation.Int(int64(rng.Intn(100))),
			relation.String([]string{"x", "y", "yy", "z"}[rng.Intn(4)]),
		})
	}
}

// referenceSelect is the selection as wrappers computed it before the
// ordered scan: the rows in storage order, Eval per tuple, a map to
// deduplicate and set.New to sort.
func referenceSelect(b Backend, c cond.Cond) (set.Set, error) {
	schema := b.Schema()
	if err := c.Check(schema); err != nil {
		return set.Set{}, err
	}
	rel, err := b.Relation()
	if err != nil {
		return set.Set{}, err
	}
	seen := map[string]bool{}
	var items []string
	for _, t := range rel.Rows() {
		ok, err := c.Eval(schema, t)
		if err != nil {
			return set.Set{}, err
		}
		if item := t[schema.MergeIndex()].Raw(); ok && !seen[item] {
			seen[item] = true
			items = append(items, item)
		}
	}
	return set.New(items...), nil
}

func checkSelects(t *testing.T, tr *trio) {
	t.Helper()
	ctx := context.Background()
	for name, b := range tr.backends {
		w := NewWrapper("R", b, Capabilities{BloomSemijoin: true})
		for _, c := range propConds {
			want, err := referenceSelect(b, c)
			if err != nil {
				t.Fatalf("%s: reference %s: %v", name, c, err)
			}
			got, err := w.Select(ctx, c)
			if err != nil {
				t.Fatalf("%s: Select %s: %v", name, c, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: sq(%s) = %v, reference %v", name, c, got, want)
			}
			if !sort.StringsAreSorted(got.Items()) {
				t.Fatalf("%s: sq(%s) not sorted: %v", name, c, got)
			}
			rel, err := b.Relation()
			if err != nil {
				t.Fatal(err)
			}
			local, err := SelectItems(rel, c)
			if err != nil || !local.Equal(want) {
				t.Fatalf("%s: SelectItems(%s) = %v, %v, reference %v", name, c, local, err, want)
			}
			half := want.Items()[:want.Len()/2]
			f := bloom.FromItems(half, bloom.DefaultBitsPerItem)
			var positives []string
			for _, item := range want.Items() {
				if f.Test(item) {
					positives = append(positives, item)
				}
			}
			gotBloom, err := w.SemijoinBloom(ctx, c, f)
			if err != nil || !gotBloom.Equal(set.FromSorted(positives)) {
				t.Fatalf("%s: sjqb(%s) = %v, %v, want %v", name, c, gotBloom, err, positives)
			}
		}
	}
}

func TestSelectMatchesMapAndSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := newTrio()
		tr.fill(t, rng, rng.Intn(300), 1+rng.Intn(60))
		checkSelects(t, tr)
		// The first scans built every lazy index; tuples added now must be
		// seen by the next ones, also an item whose only match is the
		// newcomer and an item that sorts before all others.
		tr.add(t, relation.Tuple{relation.String("I000"), relation.Int(-1), relation.String("x")})
		tr.add(t, relation.Tuple{relation.String("A"), relation.Int(3), relation.String("z")})
		tr.fill(t, rng, 20, 80)
		checkSelects(t, tr)
	}
}

// TestOnlyALaterTupleMatches pins the case the dedup must not lose: the
// item's first tuple fails the condition and a later one satisfies it.
func TestOnlyALaterTupleMatches(t *testing.T) {
	tr := newTrio()
	for _, a := range []int64{90, 91, 5} {
		tr.add(t, relation.Tuple{relation.String("late"), relation.Int(a), relation.String("x")})
	}
	tr.add(t, relation.Tuple{relation.String("never"), relation.Int(80), relation.String("x")})
	for name, b := range tr.backends {
		got, err := NewWrapper("R", b, Capabilities{}).Select(context.Background(), cond.MustParse("A < 10"))
		if err != nil || !got.Equal(set.New("late")) {
			t.Fatalf("%s: sq = %v, %v, want {late}", name, got, err)
		}
	}
}

func TestSelectConcurrently(t *testing.T) {
	tr := newTrio()
	tr.fill(t, rand.New(rand.NewSource(8)), 400, 70)
	for name, b := range tr.backends {
		want := make([]set.Set, len(propConds))
		for i, c := range propConds {
			var err error
			if want[i], err = referenceSelect(b, c); err != nil {
				t.Fatal(err)
			}
		}
		// A fresh wrapper over a backend no ordered scan has touched yet:
		// the goroutines race to build its index.
		w := NewWrapper("R", b, Capabilities{NativeSemijoin: true})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range propConds {
					i := (g + k) % len(propConds)
					got, err := w.Select(context.Background(), propConds[i])
					if err != nil || !got.Equal(want[i]) {
						t.Errorf("%s: concurrent sq(%s) = %v, %v, want %v", name, propConds[i], got, err, want[i])
						return
					}
					semi, err := w.Semijoin(context.Background(), propConds[i], want[i])
					if err != nil || !semi.Equal(want[i]) {
						t.Errorf("%s: concurrent sjq(%s) = %v, %v, want %v", name, propConds[i], semi, err, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// checkView holds a backend's ordered view to the contract: items ascending
// and distinct, each group its item's tuples in storage order, every column
// vector equal to its column of Rows.
func checkView(t *testing.T, name string, b Backend) *relation.Ordered {
	t.Helper()
	rel, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	scanOrder := map[string][]relation.Tuple{}
	tuples := 0
	for _, tup := range rel.Rows() {
		scanOrder[tup[0].Raw()] = append(scanOrder[tup[0].Raw()], tup)
		tuples++
	}
	view := rel.Ordered()
	if !sort.StringsAreSorted(view.Items) || len(view.Items) != len(scanOrder) || len(view.Rows) != tuples {
		t.Fatalf("%s: view has %d items (sorted=%v) and %d rows, backend holds %d and %d",
			name, len(view.Items), sort.StringsAreSorted(view.Items), len(view.Rows), len(scanOrder), tuples)
	}
	for g, item := range view.Items {
		if !reflect.DeepEqual(append([]relation.Tuple(nil), view.Group(g)...), scanOrder[item]) {
			t.Errorf("%s: group %s = %v, storage order %v", name, item, view.Group(g), scanOrder[item])
		}
	}
	if len(view.Cols) != b.Schema().NumColumns() {
		t.Fatalf("%s: %d column vectors, schema has %d columns", name, len(view.Cols), b.Schema().NumColumns())
	}
	for i, row := range view.Rows {
		for c, v := range row {
			var got relation.Value
			switch vec := view.Cols[c]; v.Kind() {
			case relation.KindInt:
				got = relation.Int(vec.Ints[i])
			case relation.KindFloat:
				got = relation.Float(vec.Floats[i])
			case relation.KindString:
				got = relation.String(vec.Strings[i])
			case relation.KindBool:
				got = relation.Bool(vec.Bools[i])
			}
			if got != v {
				t.Fatalf("%s: row %d column %d: vector holds %v, tuple %v", name, i, c, got, v)
			}
		}
	}
	return view
}

// viewOf returns the ordered view of b's relation.
func viewOf(t *testing.T, b Backend) *relation.Ordered {
	t.Helper()
	rel, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	return rel.Ordered()
}

// TestOrderedViewContract holds every backend to the view contract, checks
// that the view left the rows' storage order, which Load materializes,
// alone, and that a write drops the view: a tuple added to an item the
// backend already holds must show in the next one.
func TestOrderedViewContract(t *testing.T) {
	tr := newTrio()
	tr.fill(t, rand.New(rand.NewSource(9)), 250, 40)
	for name, b := range tr.backends {
		checkView(t, name, b)
		stored := storedRows(t, b)
		rel, err := NewWrapper("R", b, Capabilities{}).Load(context.Background())
		if err != nil || !reflect.DeepEqual(rel.Rows(), stored) {
			t.Fatalf("%s: Load is not the tuples in storage order (err %v)", name, err)
		}
	}
	held := map[string]*relation.Ordered{}
	for name, b := range tr.backends {
		held[name] = viewOf(t, b)
	}
	existing := held["row"].Items[3]
	tr.add(t, relation.Tuple{relation.String(existing), relation.Int(-7), relation.String("new")})
	for name, b := range tr.backends {
		view := checkView(t, name, b)
		if view == held[name] {
			t.Fatalf("%s: a write kept the stale view", name)
		}
		g, ok := view.Seek(0, existing)
		if group := view.Group(g); !ok || group[len(group)-1][1].IntVal() != -7 {
			t.Fatalf("%s: the tuple written to %s is not the last of its group: %v", name, existing, group)
		}
		if len(held[name].Rows) != 250 {
			t.Fatalf("%s: the view handed out before the write changed under its holder", name)
		}
	}
	for name, b := range tr.backends {
		if a := viewOf(t, b); a != checkView(t, name, b) {
			t.Fatalf("%s: view rebuilt without a write in between", name)
		}
	}
}

// TestOrderedConcurrentFirstUse has eight goroutines make the first use of
// each backend's view at once.
func TestOrderedConcurrentFirstUse(t *testing.T) {
	tr := newTrio()
	tr.fill(t, rand.New(rand.NewSource(11)), 400, 70)
	for name, b := range tr.backends {
		views := make([]*relation.Ordered, 8)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rel, err := b.Relation()
				if err != nil {
					t.Error(err)
					return
				}
				views[i] = rel.Ordered()
			}(i)
		}
		wg.Wait()
		for _, v := range views[1:] {
			if v != views[0] {
				t.Fatalf("%s: concurrent first uses built more than one view", name)
			}
		}
		checkView(t, name, b)
	}
}

func TestSelectBindErrorNamesTheSource(t *testing.T) {
	tr := newTrio()
	tr.fill(t, rand.New(rand.NewSource(10)), 10, 5)
	for name, b := range tr.backends {
		_, err := NewWrapper("R7", b, Capabilities{}).Select(context.Background(), cond.MustParse("Z = 1"))
		if err == nil || err.Error() != `source R7: cond: unknown attribute "Z"` {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
}

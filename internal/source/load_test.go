package source

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
)

// scanRows copies what b's Scan visits, in its order.
func scanRows(t *testing.T, b Backend) []relation.Tuple {
	t.Helper()
	var rows []relation.Tuple
	if err := b.Scan(func(tup relation.Tuple) error {
		rows = append(rows, tup)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// viewCopy copies what an ordered view holds, so that a later change to
// the view shows against it.
func viewCopy(o *relation.Ordered) relation.Ordered {
	return relation.Ordered{
		Items: slices.Clone(o.Items),
		Rows:  slices.Clone(o.Rows),
		Start: slices.Clone(o.Start),
	}
}

// rescan is a backend whose Scan is another's with the tuples rewritten:
// what a backend that disagrees with its own view, or with its schema,
// hands Load.
type rescan struct {
	Backend
	rewrite func([]relation.Tuple) []relation.Tuple
}

func (b rescan) Scan(fn func(relation.Tuple) error) error {
	var rows []relation.Tuple
	if err := b.Backend.Scan(func(t relation.Tuple) error {
		rows = append(rows, t)
		return nil
	}); err != nil {
		return err
	}
	for _, t := range b.rewrite(rows) {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// TestLoadSharesTheView: lq returns the backend's tuples in Scan order with
// the backend's ordered view as its own, checked as Insert checks them and
// weighed as an Insert-built relation is, and an Insert into the loaded
// relation copies before it writes.
func TestLoadSharesTheView(t *testing.T) {
	ctx := context.Background()
	tr := newTrio()
	tr.fill(t, rand.New(rand.NewSource(5)), 300, 120)
	for _, name := range []string{"row", "kv", "oem"} {
		t.Run(name, func(t *testing.T) {
			b := tr.backends[name]
			w := NewWrapper("R", b, Capabilities{})
			rel, err := w.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			scanned := scanRows(t, b)
			if !reflect.DeepEqual(rel.Rows(), scanned) {
				t.Fatalf("Load's rows are not the backend's Scan order")
			}
			ref := relation.NewRelation(propSchema)
			for _, tup := range scanned {
				if err := ref.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			if rel.Bytes() != ref.Bytes() {
				t.Errorf("Bytes = %d, an Insert-built relation's %d", rel.Bytes(), ref.Bytes())
			}
			view, err := b.Ordered()
			if err != nil {
				t.Fatal(err)
			}
			if name != "oem" && rel.Ordered() != view {
				t.Errorf("the loaded relation's view is not the backend's")
			}
			if got, want := viewCopy(rel.Ordered()), viewCopy(ref.Ordered()); !reflect.DeepEqual(got, want) {
				t.Errorf("the loaded relation's view is not its rows' ordered view")
			}

			// An Insert into the loaded relation leaves the backend as it was.
			_, _, bytes := b.Size()
			before := viewCopy(view)
			added := relation.Tuple{relation.String("I000+"), relation.Int(1), relation.String("x")}
			if err := rel.Insert(added); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scanRows(t, b), scanned) {
				t.Errorf("an Insert into the loaded relation changed the backend's rows")
			}
			if now, _ := b.Ordered(); name != "oem" && now != view {
				t.Errorf("an Insert into the loaded relation dropped the backend's view")
			}
			if !reflect.DeepEqual(viewCopy(view), before) {
				t.Errorf("an Insert into the loaded relation wrote into the backend's view")
			}
			if _, _, now := b.Size(); now != bytes {
				t.Errorf("backend Bytes %d after an Insert into the loaded relation, %d before", now, bytes)
			}
			o := rel.Ordered()
			if o == view || len(o.Rows) != len(scanned)+1 || len(rel.RowsWithItem("I000+")) != 1 {
				t.Errorf("the loaded relation's view after an Insert has %d rows, the new row %v", len(o.Rows), rel.RowsWithItem("I000+"))
			}
		})
	}

	t.Run("refused", func(t *testing.T) {
		for _, bc := range []struct {
			name    string
			rewrite func([]relation.Tuple) []relation.Tuple
			want    string
		}{
			{"arity", func(rows []relation.Tuple) []relation.Tuple {
				return append(slices.Clone(rows[:1]), rows[1][:2])
			}, "arity"},
			{"kind", func(rows []relation.Tuple) []relation.Tuple {
				bad := slices.Clone(rows[1])
				bad[1] = relation.String("7")
				return append(slices.Clone(rows[:1]), bad)
			}, "expects"},
			{"more", func(rows []relation.Tuple) []relation.Tuple {
				return append(slices.Clone(rows), rows[0])
			}, "more tuples"},
			{"fewer", func(rows []relation.Tuple) []relation.Tuple {
				return rows[:len(rows)-1]
			}, "ordered view has"},
		} {
			w := NewWrapper("R", rescan{tr.backends["row"], bc.rewrite}, Capabilities{})
			_, err := w.Load(ctx)
			if err == nil || !strings.HasPrefix(err.Error(), "source R: load: ") || !strings.Contains(err.Error(), bc.want) {
				t.Errorf("%s: Load's error is %v, want one about %q", bc.name, err, bc.want)
			}
		}
	})

	// Loads and selections share the view from eight goroutines at once.
	t.Run("concurrent", func(t *testing.T) {
		c := cond.MustParse("A < 50")
		for _, name := range []string{"row", "kv", "oem"} {
			w := NewWrapper("R", tr.backends[name], Capabilities{})
			want, err := referenceSelect(tr.backends[name], c)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						rel, err := w.Load(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						local, err := SelectItems(NewRowBackend(rel), c)
						if err != nil {
							t.Error(err)
							return
						}
						got, err := w.Select(ctx, c)
						if err != nil {
							t.Error(err)
							return
						}
						if !local.Equal(want) || !got.Equal(want) {
							t.Errorf("%s: local selection %d items, Select %d, want %d", name, local.Len(), got.Len(), want.Len())
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	})
}

// TestLoadAllocs pins what a load allocates once the backend's view is
// built: the loaded relation, its rows and the callback the backend's Scan
// is given, nothing per tuple and no sort.
func TestLoadAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	const n = 2000
	w := NewWrapper("R", NewRowBackend(benchRelation(n, n)), Capabilities{})
	ctx := context.Background()
	load := func() {
		if _, err := w.Load(ctx); err != nil {
			t.Fatal(err)
		}
	}
	load()
	if allocs := testing.AllocsPerRun(20, load); allocs > 3 {
		t.Errorf("Load of %d tuples allocates %.0f times, want at most 3", n, allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; kb > 64 {
		t.Errorf("Load of %d tuples allocates %.1f KiB, want at most 64", n, kb)
	}
}

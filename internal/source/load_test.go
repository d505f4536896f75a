package source

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/racetest"
	"fusionq/internal/relation"
)

// storedRows returns b's relation's rows, in its storage order.
func storedRows(t *testing.T, b Backend) []relation.Tuple {
	t.Helper()
	rel, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows()
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

// TestLoadSharesTheView: lq returns the backend's tuples in storage order
// with the backend's ordered view as its own, weighed as an Insert-built
// relation is, and an Insert into the loaded relation copies before it
// writes.
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
			stored := storedRows(t, b)
			if !reflect.DeepEqual(rel.Rows(), stored) {
				t.Fatalf("Load's rows are not the backend's storage order")
			}
			ref := relation.NewRelation(propSchema)
			for _, tup := range stored {
				if err := ref.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			if rel.Bytes() != ref.Bytes() {
				t.Errorf("Bytes = %d, an Insert-built relation's %d", rel.Bytes(), ref.Bytes())
			}
			held, err := b.Relation()
			if err != nil {
				t.Fatal(err)
			}
			view := held.Ordered()
			if rel.Ordered() != view {
				t.Errorf("the loaded relation's view is not the backend's")
			}
			if got, want := viewCopy(rel.Ordered()), viewCopy(ref.Ordered()); !reflect.DeepEqual(got, want) {
				t.Errorf("the loaded relation's view is not its rows' ordered view")
			}

			// An Insert into the loaded relation leaves the backend as it was.
			bytes := held.Bytes()
			before := viewCopy(view)
			added := relation.Tuple{relation.String("I000+"), relation.Int(1), relation.String("x")}
			if err := rel.Insert(added); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(storedRows(t, b), stored) {
				t.Errorf("an Insert into the loaded relation changed the backend's rows")
			}
			if now, _ := b.Relation(); now.Ordered() != view {
				t.Errorf("an Insert into the loaded relation dropped the backend's view")
			}
			if !reflect.DeepEqual(viewCopy(view), before) {
				t.Errorf("an Insert into the loaded relation wrote into the backend's view")
			}
			if now := held.Bytes(); now != bytes {
				t.Errorf("backend Bytes %d after an Insert into the loaded relation, %d before", now, bytes)
			}
			o := rel.Ordered()
			if o == view || len(o.Rows) != len(stored)+1 || len(rel.RowsWithItem("I000+")) != 1 {
				t.Errorf("the loaded relation's view after an Insert has %d rows, the new row %v", len(o.Rows), rel.RowsWithItem("I000+"))
			}
		})
	}

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
						local, err := SelectItems(rel, c)
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

// TestLoadAllocs pins what a warm load allocates over a backend of each
// kind: the loaded relation's header, nothing per tuple, no sort, no decode
// and no mapping.
func TestLoadAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	const n = 2000
	tr := newTrio()
	for _, tup := range benchRelation(n, n).Rows() {
		tr.add(t, tup)
	}
	ctx := context.Background()
	for name, b := range tr.backends {
		w := NewWrapper("R", b, Capabilities{})
		load := func() {
			if _, err := w.Load(ctx); err != nil {
				t.Fatal(err)
			}
		}
		load()
		if allocs := testing.AllocsPerRun(20, load); allocs > 1 {
			t.Errorf("%s: Load of %d tuples allocates %.0f times, want at most 1", name, n, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			load()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > 1024 {
			t.Errorf("%s: Load of %d tuples allocates %.0f B, want at most 1 KiB", name, n, b)
		}
	}
}

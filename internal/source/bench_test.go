package source

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

var sinkSet set.Set

// BenchmarkWrapperSelect measures sq(A < t, R) at the wrapper: relation sizes
// and item density of the repository benchmark's sources (universe twice the
// tuple count), three selectivities, one backend of each kind.
func BenchmarkWrapperSelect(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		tr := newTrio()
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			tup := relation.Tuple{
				relation.String(fmt.Sprintf("ID%06d", rng.Intn(2*n))),
				relation.Int(int64(rng.Intn(100))),
				relation.String("x"),
			}
			if err := tr.rel.Insert(tup); err != nil {
				b.Fatal(err)
			}
			if err := tr.kv.Put(tup); err != nil {
				b.Fatal(err)
			}
			tr.store.Add(recordObject(tup))
		}
		for _, name := range []string{"row", "kv", "oem"} {
			w := NewWrapper("R", tr.backends[name], Capabilities{})
			for _, pct := range []int{1, 30, 90} {
				c := cond.MustParse(fmt.Sprintf("A < %d", pct))
				b.Run(fmt.Sprintf("%s/tuples=%d/sel=%d%%", name, n, pct), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						out, err := w.Select(context.Background(), c)
						if err != nil {
							b.Fatal(err)
						}
						sinkSet = out
					}
				})
			}
		}
	}
}

// BenchmarkLayeredSelect measures what the layers between the mediator and a
// wrapper add to one selection: the bare wrapper, then the same wrapper under
// the fault layer (rate 0) and the accounting layer (no network). The
// difference in allocs/op is the layers' own; the relation is small so that
// their time shows next to the scan's.
func BenchmarkLayeredSelect(b *testing.B) {
	rel := relation.NewRelation(propSchema)
	for i := 0; i < 64; i++ {
		rel.MustInsert(relation.String(fmt.Sprintf("ID%06d", i)), relation.Int(int64(i%100)), relation.String("x"))
	}
	w := NewWrapper("R", NewRowBackend(rel), Capabilities{})
	c := cond.MustParse("A < 1")
	for _, bc := range []struct {
		name string
		src  Source
	}{
		{"wrapper", w},
		{"flaky+instrumented", NewFlaky(Instrument(w, nil), 0, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bc.src.Select(context.Background(), c)
				if err != nil {
					b.Fatal(err)
				}
				sinkSet = out
			}
		})
	}
}

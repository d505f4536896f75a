package source

import (
	"context"
	"fmt"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

var sinkSet set.Set

// benchSelect runs one selection per iteration, cycling through the wrappers.
func benchSelect(b *testing.B, c cond.Cond, wrappers ...*Wrapper) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := wrappers[i%len(wrappers)].Select(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		sinkSet = out
	}
}

// BenchmarkWrapperSelect measures sq(c, R) at the wrapper: relation sizes and
// item density of the repository benchmark's sources (universe twice the
// tuple count). A < t at three selectivities over one backend of each kind;
// the other node kinds over the row backend; and A < t cycling six relations,
// as the benchmark's deployment does: a query there meets each relation
// after the other five have been through the cache, which the rows over one
// relation never pay for.
func BenchmarkWrapperSelect(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		tr := newTrio()
		for _, tup := range benchRelation(int64(n), n).Rows() {
			tr.add(b, tup)
		}
		for _, name := range []string{"row", "kv", "oem"} {
			w := NewWrapper("R", tr.backends[name], Capabilities{})
			for _, pct := range []int{1, 30, 90} {
				c := cond.MustParse(fmt.Sprintf("A < %d", pct))
				b.Run(fmt.Sprintf("%s/tuples=%d/sel=%d%%", name, n, pct), func(b *testing.B) { benchSelect(b, c, w) })
			}
		}
		row := NewWrapper("R", tr.backends["row"], Capabilities{})
		for _, bc := range []struct{ name, expr string }{
			{"and", "A < 30 AND B != 'x'"},
			{"or", "A < 5 OR B = 'z'"},
			{"in", "A IN (1, 2, 3, 50)"},
			{"like", "B LIKE 'y%'"},
		} {
			c := cond.MustParse(bc.expr)
			b.Run(fmt.Sprintf("row/tuples=%d/cond=%s", n, bc.name), func(b *testing.B) { benchSelect(b, c, row) })
		}
		six := make([]*Wrapper, 6)
		for i := range six {
			six[i] = NewWrapper("R", NewRowBackend(benchRelation(int64(n+i), n)), Capabilities{})
		}
		c := cond.MustParse("A < 30")
		b.Run(fmt.Sprintf("row-of-six/tuples=%d/sel=30%%", n), func(b *testing.B) { benchSelect(b, c, six...) })
	}
}

// BenchmarkWrapperSemijoin measures sjq(A < 30, R, Y) over a row backend of
// 10^4 tuples, Y every k-th item of the universe (four in ten are in R).
func BenchmarkWrapperSemijoin(b *testing.B) {
	const n = 10000
	w := NewWrapper("R", NewRowBackend(benchRelation(n, n)), Capabilities{NativeSemijoin: true})
	c := cond.MustParse("A < 30")
	for _, size := range []int{100, 10000} {
		items := make([]string, size)
		for i := range items {
			items[i] = fmt.Sprintf("ID%06d", i*(2*n/size))
		}
		y := set.FromSorted(items)
		b.Run(fmt.Sprintf("row/tuples=%d/y=%d", n, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := w.Semijoin(context.Background(), c, y)
				if err != nil {
					b.Fatal(err)
				}
				sinkSet = out
			}
		})
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

var sinkItems []string

// BenchmarkWrapperLoad measures lq(R) at the wrapper over a backend of each
// kind, 2 000 tuples at the benchmark's item density, and the loaded
// relation's ordered view, which is what the executor's load step reads.
// One load before the clock starts builds the backend's view, so every
// timed load is a warm one.
func BenchmarkWrapperLoad(b *testing.B) {
	const n = 2000
	tr := newTrio()
	for _, tup := range benchRelation(n, n).Rows() {
		tr.add(b, tup)
	}
	for _, name := range []string{"row", "kv", "oem"} {
		w := NewWrapper("R", tr.backends[name], Capabilities{})
		if _, err := w.Load(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/tuples=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rel, err := w.Load(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				sinkItems = rel.Ordered().Items
			}
		})
	}
}

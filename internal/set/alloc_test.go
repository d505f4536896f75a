package set

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The set algebra is the mediator's hottest local path: every round of every
// plan flows through Union/Intersect/UnionAll. These tests pin the
// allocation counts of the pre-sized implementations so a regression back to
// grow-by-append or fold-of-pairwise shows up as a test failure, and the
// benchmarks report allocs/op under -benchmem for the perf trajectory.

func mkSet(n, stride, offset int) Set {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("ID%06d", offset+i*stride)
	}
	return FromSorted(items)
}

// drawn returns k sets of about n items each, drawn from a universe of u and
// named by name: with ID%06d names, the shape of the per-source answers a
// plan-reuse round unions.
func drawn(k, n, u int, name func(v int) string) []Set {
	r := rand.New(rand.NewSource(1))
	sets := make([]Set, k)
	for i := range sets {
		items := make([]string, n)
		for j := range items {
			items[j] = name(r.Intn(u))
		}
		sets[i] = New(items...)
	}
	return sets
}

// The item names the union rows draw. shortName is the benchmark's: the
// suffix past the common prefix is at most 7 bytes, so keys are exact.
// longName is 24 bytes with a suffix of about 20, so keys are key8's and only
// equal items tie. tiedName is 24 bytes whose first 8 are one of two values,
// so most compares are key ties the strings decide.
func shortName(v int) string { return fmt.Sprintf("ID%06d", v) }
func longName(v int) string  { return fmt.Sprintf("ID%06d@region1.example", v) }
func tiedName(v int) string  { return fmt.Sprintf("%c-region/ID%06d.org.uk", 'a'+v%2, v) }

// TestAllocBounds: a union allocates its result and nothing else once the
// scratch pool is warm (testing.AllocsPerRun warms it with one call), and the
// result's capacity is its length. Under -race the pool drops some of what
// is put back, and a call that finds it empty allocates the result, the
// unionScratch and its three slices: 5, the bound a pooled case keeps there.
func TestAllocBounds(t *testing.T) {
	a := mkSet(1000, 2, 0)
	b := mkSet(1000, 3, 1)
	c := mkSet(1000, 5, 2)
	var sink Set
	cases := []struct {
		name   string
		max    float64
		pooled bool
		fn     func()
	}{
		{"Union", 1, true, func() { sink = a.Union(b) }},
		{"Intersect", 1, false, func() { sink = a.Intersect(b) }},
		{"Diff", 1, false, func() { sink = a.Diff(b) }},
		{"UnionAll", 1, true, func() { sink = UnionAll(a, b, c) }},
		{"UnionAllPair", 1, true, func() { sink = UnionAll(a, Empty, b) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			limit := tc.max
			if tc.pooled && raceDetector {
				limit = 5
			}
			if got := testing.AllocsPerRun(20, tc.fn); got > limit {
				t.Errorf("%s allocates %.1f times per op, want <= %.0f", tc.name, got, limit)
			}
			if tc.pooled {
				if items := sink.Items(); cap(items) != len(items) {
					t.Errorf("%s result has len %d, cap %d", tc.name, len(items), cap(items))
				}
			}
		})
	}
}

// TestUnionAllSharesThePool runs unions from eight goroutines at once, all
// taking scratch from the one pool, and checks every result against the
// reference. Under -race it is the check that no scratch is shared.
func TestUnionAllSharesThePool(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for trial := 0; trial < 50; trial++ {
				sets := make([]Set, 2+r.Intn(5))
				for i := range sets {
					items := make([]string, r.Intn(300))
					for j := range items {
						items[j] = fmt.Sprintf("%s%0*d", []string{"ID", "a-much-longer-common-prefix/"}[trial%2], 1+r.Intn(10), r.Intn(2000))
					}
					sets[i] = New(items...)
				}
				if got, want := UnionAll(sets...), referenceUnion(sets); !got.Equal(want) {
					errs <- fmt.Errorf("goroutine %d trial %d: UnionAll = %d items, want %d", g, trial, got.Len(), want.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkUnion(b *testing.B) {
	x := mkSet(4096, 2, 0)
	y := mkSet(4096, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

func BenchmarkIntersect(b *testing.B) {
	x := mkSet(4096, 2, 0)
	y := mkSet(4096, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Intersect(y)
	}
}

// BenchmarkUnionAll: four strided inputs of 2 048, and six inputs of about
// 800 drawn from 4 000, the shape of a plan-reuse round's union, with the
// benchmark's names and with two kinds of 24-byte name.
func BenchmarkUnionAll(b *testing.B) {
	rows := []struct {
		name string
		sets []Set
	}{
		{"strided-4x2048", []Set{mkSet(2048, 2, 0), mkSet(2048, 3, 1), mkSet(2048, 5, 2), mkSet(2048, 7, 3)}},
		{"drawn-6x800-of-4000", drawn(6, 800, 4000, shortName)},
		{"drawn-long-6x800-of-4000", drawn(6, 800, 4000, longName)},
		{"drawn-tied-6x800-of-4000", drawn(6, 800, 4000, tiedName)},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = UnionAll(row.sets...)
			}
		})
	}
}

func BenchmarkMergeUnionStream(b *testing.B) {
	sets := []Set{mkSet(2048, 2, 0), mkSet(2048, 3, 1), mkSet(2048, 5, 2)}
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		its := make([]Iter, len(sets))
		for j := range sets {
			its[j] = IterOf(sets[j], DefaultBatch)
		}
		if _, err := Collect(ctx, MergeUnion(DefaultBatch, its...)); err != nil {
			b.Fatal(err)
		}
	}
}

package set

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fusionq/internal/racetest"
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
			if tc.pooled && racetest.Enabled {
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

// TestMergeAllocs: a merge allocates itself, its inputs' state and their
// cuts, and nothing per batch or per item once the pools are warm (the
// batch buffer, a union's scratch). The count is the same for ∪, ∩ and −,
// and the same at 4×256 items as at 4×4 096. The inputs are IterOf streams
// reset in place, so that the count is the merge's alone. Under -race the
// pools drop some of what is put back, so the test runs without it only.
func TestMergeAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("pooled buffers are not reliably reused under -race")
	}
	const want = 3
	ctx := context.Background()
	for _, n := range []int{256, 4096} {
		sets := []Set{mkSet(n, 1, 0), mkSet(n, 2, 0), mkSet(n, 3, 0), mkSet(n, 4, 0)}
		iters := make([]setIter, len(sets))
		its := make([]Iter, len(sets))
		for _, tc := range []struct {
			name  string
			merge func() Iter
		}{
			{"union", func() Iter { return MergeUnion(16, its...) }},
			{"intersect", func() Iter { return MergeIntersect(16, its...) }},
			{"diff", func() Iter { return MergeDiff(16, its[0], its[1]) }},
		} {
			items := 0
			got := testing.AllocsPerRun(20, func() {
				for i, s := range sets {
					iters[i] = setIter{items: s.items, sched: NewSchedule(16)}
					its[i] = &iters[i]
				}
				m := tc.merge()
				for items = 0; ; {
					batch, err := m.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if batch == nil {
						break
					}
					items += len(batch)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			})
			if items == 0 {
				t.Fatalf("%s of 4×%d items is empty; the test wants items", tc.name, n)
			}
			if got != want {
				t.Errorf("%s of 4×%d items (%d out) allocates %v times, want %d", tc.name, n, items, got, want)
			}
		}
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

// benchRows are the inputs of the union and intersection rows: four strided
// inputs of 2 048, six of about 800 drawn from 4 000 (the shape of a
// plan-reuse round's union) with the benchmark's names and with two kinds of
// 24-byte name, and two strided inputs of 4 096.
func benchRows() []struct {
	name string
	sets []Set
} {
	return []struct {
		name string
		sets []Set
	}{
		{"strided-4x2048", []Set{mkSet(2048, 2, 0), mkSet(2048, 3, 1), mkSet(2048, 5, 2), mkSet(2048, 7, 3)}},
		{"drawn-6x800-of-4000", drawn(6, 800, 4000, shortName)},
		{"drawn-long-6x800-of-4000", drawn(6, 800, 4000, longName)},
		{"drawn-tied-6x800-of-4000", drawn(6, 800, 4000, tiedName)},
		{"strided-2x4096", []Set{mkSet(4096, 2, 0), mkSet(4096, 3, 1)}},
	}
}

// benchKernel runs a materialized kernel over every row.
func benchKernel(b *testing.B, kernel func(...Set) Set) {
	for _, row := range benchRows() {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = kernel(row.sets...)
			}
		})
	}
}

// benchMerge streams every row's inputs at DefaultBatch through a merge and
// collects it: the same rows as benchKernel, so the two forms compare row by
// row.
func benchMerge(b *testing.B, merge func(int, ...Iter) Iter) {
	ctx := context.Background()
	for _, row := range benchRows() {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				its := make([]Iter, len(row.sets))
				for j, s := range row.sets {
					its[j] = IterOf(s, DefaultBatch)
				}
				if _, err := Collect(ctx, merge(DefaultBatch, its...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnionAll(b *testing.B)             { benchKernel(b, UnionAll) }
func BenchmarkIntersectAll(b *testing.B)         { benchKernel(b, IntersectAll) }
func BenchmarkMergeUnionStream(b *testing.B)     { benchMerge(b, MergeUnion) }
func BenchmarkMergeIntersectStream(b *testing.B) { benchMerge(b, MergeIntersect) }

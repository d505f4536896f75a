package set

import (
	"context"
	"math"
	"slices"
	"testing"
)

// modelSizes is the schedule written out: the sizes of the batches a stream
// of n items takes from first — first·2^k for the k-th, at most
// MaxGrowth·first — the last cut to what is left.
func modelSizes(n, first int) []int {
	var out []int
	for size := first; n > 0; size = min(2*size, MaxGrowth*first) {
		out = append(out, min(size, n))
		n -= size
	}
	return out
}

// scheduleLengths are the stream lengths the property tests walk for one
// first size: every length to 40 batches' worth of the smallest first, the
// lengths around each point where the schedule grows or reaches its cap,
// and a stride through [0, 20 000].
func scheduleLengths(first int) []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	for k := 0; k <= 7; k++ {
		edge := first * (1<<k - 1)
		ns = append(ns, edge-1, edge, edge+1)
	}
	for n := 41; n <= 20000; n += 997 {
		ns = append(ns, n)
	}
	return append(ns, 20000)
}

// sizesOf drains it and returns its batch sizes.
func sizesOf(t *testing.T, it Iter) []int {
	t.Helper()
	defer func() { _ = it.Close() }()
	var out []int
	for {
		batch, err := it.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return out
		}
		out = append(out, len(batch))
	}
}

// TestEveryStreamFollowsTheSchedule: a materialized set streamed, and the
// output of each merge, come in the schedule's sizes whatever batches their
// inputs arrive in, and Batches counts them. The first batch is exactly the
// size asked for whenever the stream is longer.
func TestEveryStreamFollowsTheSchedule(t *testing.T) {
	all := names(seq(20000)...)
	for _, first := range []int{1, 4, DefaultBatch} {
		for _, n := range scheduleLengths(first) {
			if n < 0 || n > len(all) {
				continue
			}
			want := modelSizes(n, first)
			if n > first && want[0] != first {
				t.Fatalf("model: first batch of %d items is %d", n, want[0])
			}
			if got := Batches(float64(n), first); got != float64(len(want)) {
				t.Fatalf("Batches(%d, %d) = %v, want %d", n, first, got, len(want))
			}
			s, half := FromSorted(all[:n]), FromSorted(all[:n/2])
			for name, it := range map[string]Iter{
				"IterOf":         IterOf(s, first),
				"MergeUnion":     MergeUnion(first, IterOf(half, 3), IterOf(s, 7)),
				"MergeIntersect": MergeIntersect(first, IterOf(s, 5), IterOf(s, 2*first)),
				"MergeDiff":      MergeDiff(first, IterOf(s, 1), IterOf(Empty, 1)),
			} {
				if got := sizesOf(t, it); !slices.Equal(got, want) {
					t.Fatalf("%s of %d items from %d: batches %v, want %v", name, n, first, got, want)
				}
			}
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestScheduleSaturates: a first size from an untrusted peer cannot overflow
// the schedule. At math.MaxInt every batch is math.MaxInt; just below it the
// sizes grow to math.MaxInt and stay there.
func TestScheduleSaturates(t *testing.T) {
	s := NewSchedule(math.MaxInt)
	for i := 0; i < 8; i++ {
		if got := s.Next(); got != math.MaxInt {
			t.Fatalf("batch %d from math.MaxInt = %d", i, got)
		}
	}
	s = NewSchedule(math.MaxInt/3 + 1)
	prev := 0
	for i := 0; i < 8; i++ {
		got := s.Next()
		if got < prev || got <= 0 {
			t.Fatalf("batch %d = %d after %d: the schedule overflowed", i, got, prev)
		}
		prev = got
	}
	if prev != math.MaxInt {
		t.Fatalf("schedule from math.MaxInt/3+1 settled at %d, want math.MaxInt", prev)
	}
	if got := Batches(1e18, math.MaxInt); got != 1 {
		t.Fatalf("Batches(1e18, math.MaxInt) = %v, want 1", got)
	}
	if got := sizesOf(t, IterOf(FromSorted(names(seq(10)...)), math.MaxInt)); !slices.Equal(got, []int{10}) {
		t.Fatalf("IterOf(10 items, math.MaxInt) batches %v, want [10]", got)
	}
	if got := Batches(math.Inf(1), DefaultBatch); !math.IsInf(got, 1) {
		t.Fatalf("Batches(+Inf) = %v", got)
	}
}

package set

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// drain collects every batch of it, checking the batch contract as it goes:
// non-empty batches, sorted ascending, strictly increasing across batches,
// and, when first > 0, sizes that follow the Schedule from first: every batch
// but the last exactly its size, the last at most.
func drain(t *testing.T, it Iter, first int) []string {
	t.Helper()
	ctx := context.Background()
	var all []string
	prev := ""
	sched, short := NewSchedule(first), false
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if batch == nil {
			break
		}
		if len(batch) == 0 {
			t.Fatalf("empty non-nil batch")
		}
		if first > 0 {
			want := sched.Next()
			if short || len(batch) > want {
				t.Fatalf("batch of %d items after a short one, or over the schedule's %d", len(batch), want)
			}
			short = len(batch) < want
		}
		for _, v := range batch {
			if len(all) > 0 && v <= prev {
				t.Fatalf("item %q not strictly greater than previous %q", v, prev)
			}
			prev = v
			all = append(all, v)
		}
	}
	// Exhausted iterators keep returning nil.
	if batch, err := it.Next(ctx); batch != nil || err != nil {
		t.Fatalf("Next after exhaustion = (%v, %v), want (nil, nil)", batch, err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	return all
}

func names(is ...int) []string {
	out := make([]string, len(is))
	for i, v := range is {
		out[i] = fmt.Sprintf("ID%06d", v)
	}
	return out
}

func TestIterOfBatches(t *testing.T) {
	s := New(names(5, 1, 9, 3, 7, 2, 8)...)
	got := drain(t, IterOf(s, 3), 3)
	if !FromSorted(got).Equal(s) {
		t.Fatalf("IterOf yielded %v, want %v", got, s)
	}
	if got := drain(t, IterOf(Set{}, 4), 4); len(got) != 0 {
		t.Fatalf("IterOf(empty) yielded %v", got)
	}
}

func TestCollectRoundTrip(t *testing.T) {
	s := New(names(4, 2, 6, 0, 8, 10, 12)...)
	got, err := Collect(context.Background(), IterOf(s, 2))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !got.Equal(s) {
		t.Fatalf("Collect = %v, want %v", got, s)
	}
}

func TestMergeOperatorsAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		sets := make([]Set, k)
		for i := range sets {
			n := rng.Intn(30)
			items := make([]string, n)
			for j := range items {
				items[j] = fmt.Sprintf("ID%06d", rng.Intn(40))
			}
			sets[i] = New(items...)
		}
		batch := 1 + rng.Intn(7)
		mk := func() []Iter {
			its := make([]Iter, k)
			for i := range sets {
				its[i] = IterOf(sets[i], 1+rng.Intn(5))
			}
			return its
		}

		union := drain(t, MergeUnion(batch, mk()...), batch)
		if want := UnionAll(sets...); !FromSorted(union).Equal(want) {
			t.Fatalf("trial %d: MergeUnion = %v, want %v", trial, union, want)
		}
		inter := drain(t, MergeIntersect(batch, mk()...), batch)
		if want := IntersectAll(sets...); !FromSorted(inter).Equal(want) {
			t.Fatalf("trial %d: MergeIntersect = %v, want %v", trial, inter, want)
		}
		if k >= 2 {
			its := mk()
			diff := drain(t, MergeDiff(batch, its[0], its[1]), batch)
			if want := sets[0].Diff(sets[1]); !FromSorted(diff).Equal(want) {
				t.Fatalf("trial %d: MergeDiff = %v, want %v", trial, diff, want)
			}
		}
	}
}

// closeCounter tracks whether a composed iterator propagates Close.
type closeCounter struct {
	Iter
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.Iter.Close()
}

func TestMergeCloseReachesInputs(t *testing.T) {
	a := &closeCounter{Iter: IterOf(New(names(1, 2, 3)...), 2)}
	b := &closeCounter{Iter: IterOf(New(names(2, 3, 4)...), 2)}
	m := MergeUnion(2, a, b)
	if _, err := m.Next(context.Background()); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if a.closes == 0 || b.closes == 0 {
		t.Fatalf("Close did not reach inputs: a=%d b=%d", a.closes, b.closes)
	}
}

func TestMergeIntersectShortCircuits(t *testing.T) {
	// One empty input decides the intersection: the other inputs must be
	// closed as soon as the stream ends, without being drained.
	big := &closeCounter{Iter: IterOf(New(names(1, 2, 3, 4, 5, 6, 7, 8)...), 2)}
	empty := &closeCounter{Iter: IterOf(Set{}, 2)}
	m := MergeIntersect(4, big, empty)
	batch, err := m.Next(context.Background())
	if err != nil || batch != nil {
		t.Fatalf("Next = (%v, %v), want exhausted", batch, err)
	}
	if big.closes == 0 {
		t.Fatalf("exhausted intersection did not close its inputs")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// errIter fails after yielding its first batch.
type errIter struct {
	sent bool
	err  error
}

func (e *errIter) Next(ctx context.Context) ([]string, error) {
	if !e.sent {
		e.sent = true
		return []string{"a"}, nil
	}
	return nil, e.err
}

func (e *errIter) Close() error { return nil }

func TestMergePropagatesErrors(t *testing.T) {
	want := errors.New("mid-stream failure")
	m := MergeUnion(1, &errIter{err: want}, IterOf(New("a", "b", "c"), 1))
	ctx := context.Background()
	if _, err := m.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	_, err := m.Next(ctx)
	for err == nil {
		_, err = m.Next(ctx)
	}
	if !errors.Is(err, want) {
		t.Fatalf("error = %v, want %v", err, want)
	}
	// Poisoned: the error sticks.
	if _, err2 := m.Next(ctx); !errors.Is(err2, want) {
		t.Fatalf("poisoned Next = %v, want %v", err2, want)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestIterHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IterOf(New("a"), 1).Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("setIter.Next under cancelled ctx = %v", err)
	}
	m := MergeUnion(1, IterOf(New("a"), 1))
	defer func() { _ = m.Close() }()
	if _, err := m.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("mergeIter.Next under cancelled ctx = %v", err)
	}
}

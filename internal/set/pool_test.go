package set

import (
	"context"
	"testing"

	"fusionq/internal/racetest"
)

// TestBatchPoolClasses: a buffer has room for what was asked, in a
// power-of-two class from 2^minClass items up to 2^maxClass, and one larger
// than that is exactly its size and is not taken back.
func TestBatchPoolClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {256, 256}, {257, 512}, {4096, 4096}, {1 << maxClass, 1 << maxClass}, {1<<maxClass + 1, 1<<maxClass + 1},
	} {
		b := Alloc(tc.n)
		if len(b) != 0 || cap(b) != tc.cap {
			t.Errorf("Alloc(%d) has len %d, cap %d; want 0, %d", tc.n, len(b), cap(b), tc.cap)
		}
		Release(FromSorted(b))
	}
	// Buffers of no class, and nil, are let go without harm.
	odd := make([]string, 3, 24)
	Release(FromSorted(odd))
	Release(FromSorted(nil))
	if odd[0] != "" || len(odd) != 3 {
		t.Fatalf("a buffer of no class was recycled")
	}
}

// TestRecycledBatchIsOverwritten: what goes back to the pool is cleared, so
// the pool pins no item, and in a race-detector build it reads as Recycled,
// so a consumer that kept a lent batch sees items nobody sent.
func TestRecycledBatchIsOverwritten(t *testing.T) {
	kept := append(Alloc(20), "ID000001", "ID000002")
	Release(FromSorted(kept))
	want := ""
	if racetest.Enabled {
		want = Recycled
	}
	for i, v := range kept[:cap(kept)] {
		if v != want {
			t.Fatalf("recycled buffer holds %q at %d, want %q", v, i, want)
		}
	}
}

// TestCollectOwnsItsSet: a merge lends every batch from one buffer, which
// it gives back on Close, so a set Collect returns must be a copy — also of
// a stream that is a single batch.
func TestCollectOwnsItsSet(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 40} {
		a, b := mkSet(n, 2, 0), mkSet(n, 3, 0)
		want := a.Union(b)
		got, err := Collect(ctx, MergeUnion(64, IterOf(a, 64), IterOf(b, 64)))
		if err != nil {
			t.Fatal(err)
		}
		// Another merge takes the buffer the first gave back.
		if _, err := Collect(ctx, MergeUnion(64, IterOf(b, 64), IterOf(mkSet(n, 5, 1), 64))); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("Collect of a %d-item union = %v, want %v", want.Len(), got, want)
		}
	}
}

// TestMergeLendsOneBuffer: a merge's batches are one buffer refilled, so
// once the schedule has grown to its largest batch, every batch is in the
// memory of the one before.
func TestMergeLendsOneBuffer(t *testing.T) {
	ctx := context.Background()
	a, b := mkSet(2000, 2, 0), mkSet(2000, 3, 1)
	m := MergeUnion(16, IterOf(a, 16), IterOf(b, 16))
	defer m.Close()
	var prev []string
	full := 0
	for {
		batch, err := m.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		if len(batch) == 16*MaxGrowth && len(prev) == len(batch) {
			full++
			if &batch[0] != &prev[0] {
				t.Fatalf("a batch of %d items is not in the buffer of the one before", len(batch))
			}
		}
		prev = batch
	}
	if full < 3 {
		t.Fatalf("the union came in %d full batches after the first; the test wants several", full)
	}
}

// TestReleaseAllocatesNothing: a set's buffer from Alloc goes back with
// Release and is what the next Alloc of its class takes, and neither call
// allocates once the pools are warm: Release finds a box Alloc left. Under
// -race the pools drop some of what is put back, so the count is checked
// without it only.
func TestReleaseAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 100, 5000} {
		got := testing.AllocsPerRun(50, func() {
			b := Alloc(n)[:n]
			for i := range b {
				b[i] = "ID000001"
			}
			Release(FromSorted(b))
		})
		if !racetest.Enabled && got != 0 {
			t.Errorf("Alloc(%d) and Release allocate %.1f times per run, want 0", n, got)
		}
		if b := Alloc(n); len(b) != 0 || cap(b) < n || cap(b)&(cap(b)-1) != 0 {
			t.Errorf("Alloc(%d) has len %d, cap %d", n, len(b), cap(b))
		}
	}
	// A set of no class — an exact-size union, say — is let go untouched.
	odd := UnionAll(New("a", "c"), New("b"))
	Release(odd)
	Release(Set{})
	if !odd.Equal(New("a", "b", "c")) {
		t.Fatalf("a set of no class was recycled: %v", odd)
	}
}

package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

func mustCond(t *testing.T, s string) cond.Cond {
	t.Helper()
	c, err := cond.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lookup asks the cache the membership question "does item satisfy cd at
// src?" the way the executor does, as a one-item Partition: known reports
// whether the cache can answer at all, match the verdict when it can.
func lookup(c *Cache, src string, cd cond.Cond, item string) (match, known bool) {
	knownTrue, unknown := c.Partition(src, cd, set.New(item))
	return knownTrue.Contains(item), !unknown.Contains(item)
}

// putMembership records one probed item's verdict, as a one-item semijoin.
func putMembership(c *Cache, src string, cd cond.Cond, item string, match bool) {
	out := set.Set{}
	if match {
		out = set.New(item)
	}
	c.PutSemijoin(src, cd, set.New(item), out)
}

func TestCacheSelectRoundTrip(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'dui'")
	if _, ok := c.Select("r1", cd); ok {
		t.Fatal("empty cache answered a selection")
	}
	c.PutSelect("r1", cd, set.New("a", "b"))
	out, ok := c.Select("r1", cd)
	if !ok || !out.Equal(set.New("a", "b")) {
		t.Fatalf("Select = %v, %v; want cached {a b}", out, ok)
	}
	// Keyed by source: the same condition at another source still misses.
	if _, ok := c.Select("r2", cd); ok {
		t.Fatal("selection leaked across sources")
	}
	// Probed verdicts are not a selection: only a complete one answers.
	putMembership(c, "r3", cd, "a", true)
	if _, ok := c.Select("r3", cd); ok {
		t.Fatal("a probed item answered a whole selection")
	}
}

func TestCacheMembershipTriState(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	if _, known := lookup(c, "r1", cd, "x"); known {
		t.Fatal("empty cache knows a verdict")
	}
	putMembership(c, "r1", cd, "x", true)
	putMembership(c, "r1", cd, "y", false)
	if match, known := lookup(c, "r1", cd, "x"); !known || !match {
		t.Fatalf("x = %v,%v; want true,true", match, known)
	}
	if match, known := lookup(c, "r1", cd, "y"); !known || match {
		t.Fatalf("y = %v,%v; want false,true", match, known)
	}
	if _, known := lookup(c, "r1", cd, "z"); known {
		t.Fatal("unprobed item z should stay unknown")
	}
}

// TestCacheSelectionAnswersAllMemberships checks the completeness rule: a
// cached selection result is a complete answer, so it decides membership for
// every item — absent means "does not satisfy" — and probing adds nothing.
func TestCacheSelectionAnswersAllMemberships(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'dui'")
	c.PutSelect("r1", cd, set.New("a"))
	if match, known := lookup(c, "r1", cd, "a"); !known || !match {
		t.Fatalf("a = %v,%v; want member", match, known)
	}
	if match, known := lookup(c, "r1", cd, "nope"); !known || match {
		t.Fatalf("nope = %v,%v; selection completeness should answer false", match, known)
	}
	c.PutSemijoin("r1", cd, set.New("a", "nope"), set.New("a"))
	if out, ok := c.Select("r1", cd); !ok || !out.Equal(set.New("a")) {
		t.Fatalf("Select after a semijoin = %v, %v; want the selection kept", out, ok)
	}
}

func TestCachePartition(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	putMembership(c, "r1", cd, "t", true)
	putMembership(c, "r1", cd, "f", false)
	knownTrue, unknown := c.Partition("r1", cd, set.New("t", "f", "u"))
	if !knownTrue.Equal(set.New("t")) {
		t.Fatalf("knownTrue = %v, want {t}", knownTrue)
	}
	// f is known-false: dropped entirely, not re-probed.
	if !unknown.Equal(set.New("u")) {
		t.Fatalf("unknown = %v, want {u}", unknown)
	}
}

func TestCachePutSemijoin(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	y, out := set.New("a", "b", "c"), set.New("b")
	c.PutSemijoin("r1", cd, y, out)
	for _, tc := range []struct {
		item string
		want bool
	}{{"a", false}, {"b", true}, {"c", false}} {
		if match, known := lookup(c, "r1", cd, tc.item); !known || match != tc.want {
			t.Fatalf("%s = %v,%v; want %v,true", tc.item, match, known, tc.want)
		}
	}
}

// TestNilCacheIsNoop checks the nil-receiver contract the executor relies
// on: every consultation misses and every store is dropped, silently.
func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	cd := mustCond(t, "V = 'dui'")
	if _, ok := c.Select("r1", cd); ok {
		t.Fatal("nil cache hit a selection")
	}
	c.PutSelect("r1", cd, set.New("a"))
	c.PutSemijoin("r1", cd, set.New("a"), set.New("a"))
	knownTrue, unknown := c.Partition("r1", cd, set.New("a", "b"))
	if !knownTrue.IsEmpty() || !unknown.Equal(set.New("a", "b")) {
		t.Fatalf("nil Partition = %v,%v; want nothing known", knownTrue, unknown)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				item := workload.ItemName(i % 50)
				putMembership(c, "r1", cd, item, i%2 == 0)
				lookup(c, "r1", cd, item)
				c.PutSelect("r2", cd, set.New(item))
				c.Select("r2", cd)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 50; i++ {
		if match, known := lookup(c, "r1", cd, workload.ItemName(i)); !known || match != (i%2 == 0) {
			t.Fatalf("item %d = %v,%v; want %v,true", i, match, known, i%2 == 0)
		}
	}
}

// countingSource tallies the queries that reach the wrapped source.
type countingSource struct {
	source.Source
	mu       sync.Mutex
	selects  int
	bindings int
	semis    int
}

func (s *countingSource) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	s.mu.Lock()
	s.selects++
	s.mu.Unlock()
	return s.Source.Select(ctx, c)
}

func (s *countingSource) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	s.mu.Lock()
	s.bindings++
	s.mu.Unlock()
	return s.Source.SelectBinding(ctx, c, item)
}

func (s *countingSource) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	s.mu.Lock()
	s.semis++
	s.mu.Unlock()
	return s.Source.Semijoin(ctx, c, y)
}

// TestCachedSource checks the decorator used by long-lived endpoints: a
// repeated selection or fully-covered semijoin reaches the inner source
// only once, and a binding passes through.
func TestCachedSource(t *testing.T) {
	sc := workload.DMV()
	inner := &countingSource{Source: sc.Sources[0]}
	cs := NewCachedSource(inner, NewCache())
	cd := sc.Conds[0]

	first, err := cs.Select(context.Background(), cd)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cs.Select(context.Background(), cd)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Fatalf("cached selection %v differs from first %v", second, first)
	}
	if inner.selects != 1 {
		t.Fatalf("inner selects = %d, want 1 (second answered from cache)", inner.selects)
	}

	// The cached selection is complete, so any semijoin over its items
	// answers locally too; a binding is the source's to answer.
	if !first.IsEmpty() {
		item := first.Items()[0]
		ok, err := cs.SelectBinding(context.Background(), cd, item)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("binding %s should match — it came from the selection", item)
		}
		if inner.bindings != 1 {
			t.Fatalf("inner bindings = %d, want 1 (a binding passes through)", inner.bindings)
		}
		out, err := cs.Semijoin(context.Background(), cd, first)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(first) {
			t.Fatalf("semijoin = %v, want %v", out, first)
		}
		if inner.semis != 0 {
			t.Fatalf("inner semijoins = %d, want 0 (all items known)", inner.semis)
		}
	}
}

// TestCachedSourceRecordsCompleteStreams: a streamed selection that misses
// is cached once it has been drained — a copy, its batches being lent — and
// one abandoned part way is not.
func TestCachedSourceRecordsCompleteStreams(t *testing.T) {
	sc := workload.DMV()
	ctx, cd := context.Background(), sc.Conds[0]
	want, err := sc.Sources[0].Select(ctx, cd)
	if err != nil || want.Len() < 2 {
		t.Fatalf("sq = %v, %v; the test wants two items", want, err)
	}
	for _, drain := range []bool{true, false} {
		inner := &countingSource{Source: sc.Sources[0]}
		cs := NewCachedSource(inner, NewCache())
		it, err := cs.SelectStream(ctx, cd, 1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			batch, err := it.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil || !drain {
				break
			}
		}
		_ = it.Close()
		got, err := cs.Select(ctx, cd)
		if err != nil || !got.Equal(want) {
			t.Fatalf("drain %v: sq = %v, %v; want %v", drain, got, err, want)
		}
		if wantSelects := map[bool]int{true: 1, false: 2}[drain]; inner.selects != wantSelects {
			t.Fatalf("drain %v: the source answered %d selections, want %d", drain, inner.selects, wantSelects)
		}
	}
}

// TestCacheBounded floods a CachedSource the way a peer of fqsource -cache
// can: semijoins over more distinct items than the cache may hold. The cache
// stays under its byte bound (the one condition that outgrew it is
// forgotten) and answers correctly afterwards.
func TestCacheBounded(t *testing.T) {
	sc := workload.DMV()
	cs := NewCachedSource(sc.Sources[0], NewCache())
	ctx, cd := context.Background(), sc.Conds[0]
	want, err := sc.Sources[0].Select(ctx, cd)
	if err != nil || want.IsEmpty() {
		t.Fatalf("sq = %v, %v", want, err)
	}
	const perCall, itemBytes = 10000, 64
	held := func() int64 {
		cs.cache.mu.Lock()
		defer cs.cache.mu.Unlock()
		return cs.cache.store.Bytes()
	}
	grew, shrank := false, false
	for sent, n := 0, 0; sent < 2*maxCacheBytes; n++ {
		items := make([]string, perCall)
		for i := range items {
			items[i] = fmt.Sprintf("X%0*d", itemBytes-1, n*perCall+i)
		}
		before := held()
		if out, err := cs.Semijoin(ctx, cd, set.FromSorted(items)); err != nil || !out.IsEmpty() {
			t.Fatalf("semijoin %d = %v, %v", n, out, err)
		}
		sent += perCall * itemBytes
		after := held()
		if after > maxCacheBytes {
			t.Fatalf("after %d bytes of items the cache holds %d, bound %d", sent, after, maxCacheBytes)
		}
		grew, shrank = grew || after > before, shrank || after < before
	}
	if !grew || !shrank {
		t.Fatalf("grew = %v, shrank = %v: the flood never reached the bound", grew, shrank)
	}
	if got, err := cs.Semijoin(ctx, cd, want); err != nil || !got.Equal(want) {
		t.Fatalf("sjq after the flood = %v, %v, want %v", got, err, want)
	}
	if got, err := cs.Select(ctx, cd); err != nil || !got.Equal(want) {
		t.Fatalf("sq after the flood = %v, %v, want %v", got, err, want)
	}
}

// TestCacheBoundIsBytes: the bound counts items' bytes, not answers. A
// hundred selections of 10^4 items are sixteen megabytes of items; the cache
// keeps the most recently used of them that fit and forgets the rest.
func TestCacheBoundIsBytes(t *testing.T) {
	const selections, perSelection = 100, 10000
	items := make([]string, perSelection)
	for i := range items {
		items[i] = fmt.Sprintf("ITEM%012d", i)
	}
	answer := set.FromSorted(items)
	c := NewCache()
	conds := make([]cond.Cond, selections)
	for i := range conds {
		conds[i] = mustCond(t, fmt.Sprintf("D = %d", i))
		c.PutSelect("r1", conds[i], answer)
		if c.store.Bytes() > maxCacheBytes {
			t.Fatalf("after %d selections the cache holds %d bytes, bound %d", i+1, c.store.Bytes(), maxCacheBytes)
		}
	}
	if total := int64(selections * answer.Bytes()); total <= maxCacheBytes {
		t.Fatalf("the test's selections total %d bytes, under the bound %d: nothing was asked of it", total, maxCacheBytes)
	}
	if kept := c.store.Len(); kept < maxCacheBytes/answer.Bytes()-1 || kept >= selections {
		t.Fatalf("the cache kept %d of %d selections", kept, selections)
	}
	if _, ok := c.Select("r1", conds[selections-1]); !ok {
		t.Fatal("the most recent selection was forgotten")
	}
	if _, ok := c.Select("r1", conds[0]); ok {
		t.Fatal("the least recent selection is still held")
	}
}

// BenchmarkCachePartition is what answering a fully cached semijoin costs: a
// Y of 10^4 items split against the verdicts a previous semijoin over the
// same Y left (half satisfy), every item known.
func BenchmarkCachePartition(b *testing.B) {
	const n = 10000
	items, out := make([]string, n), make([]string, 0, n/2)
	for i := range items {
		items[i] = workload.ItemName(i)
		if i%2 == 0 {
			out = append(out, items[i])
		}
	}
	cd, err := cond.Parse("V = 'sp'")
	if err != nil {
		b.Fatal(err)
	}
	c, y := NewCache(), set.FromSorted(items)
	c.PutSemijoin("r1", cd, y, set.FromSorted(out))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if knownTrue, unknown := c.Partition("r1", cd, y); knownTrue.Len() != n/2 || !unknown.IsEmpty() {
			b.Fatalf("Partition = %d known true, %d unknown", knownTrue.Len(), unknown.Len())
		}
	}
}

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
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

func TestCacheMembershipTriState(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	if _, known := c.Lookup("r1", cd, "x"); known {
		t.Fatal("empty cache knows a verdict")
	}
	c.PutMembership("r1", cd, "x", true)
	c.PutMembership("r1", cd, "y", false)
	if match, known := c.Lookup("r1", cd, "x"); !known || !match {
		t.Fatalf("x = %v,%v; want true,true", match, known)
	}
	if match, known := c.Lookup("r1", cd, "y"); !known || match {
		t.Fatalf("y = %v,%v; want false,true", match, known)
	}
	if _, known := c.Lookup("r1", cd, "z"); known {
		t.Fatal("unprobed item z should stay unknown")
	}
}

// TestCacheSelectionAnswersAllMemberships checks the completeness rule: a
// cached selection result is a complete answer, so it decides membership for
// every item — absent means "does not satisfy".
func TestCacheSelectionAnswersAllMemberships(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'dui'")
	c.PutSelect("r1", cd, set.New("a"))
	if match, known := c.Lookup("r1", cd, "a"); !known || !match {
		t.Fatalf("a = %v,%v; want member", match, known)
	}
	if match, known := c.Lookup("r1", cd, "nope"); !known || match {
		t.Fatalf("nope = %v,%v; selection completeness should answer false", match, known)
	}
}

func TestCachePartition(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'sp'")
	c.PutMembership("r1", cd, "t", true)
	c.PutMembership("r1", cd, "f", false)
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
		if match, known := c.Lookup("r1", cd, tc.item); !known || match != tc.want {
			t.Fatalf("%s = %v,%v; want %v,true", tc.item, match, known, tc.want)
		}
	}
}

func TestCacheClearAndLen(t *testing.T) {
	c := NewCache()
	cd := mustCond(t, "V = 'dui'")
	c.PutSelect("r1", cd, set.New("a"))
	c.PutMembership("r2", cd, "x", true)
	c.PutMembership("r2", cd, "y", false)
	if sel, mem := c.Len(); sel != 1 || mem != 2 {
		t.Fatalf("Len = %d,%d; want 1,2", sel, mem)
	}
	c.Clear()
	if sel, mem := c.Len(); sel != 0 || mem != 0 {
		t.Fatalf("Len after Clear = %d,%d; want 0,0", sel, mem)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after Clear = %+v, want zeros", st)
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
	c.PutMembership("r1", cd, "a", true)
	c.PutSemijoin("r1", cd, set.New("a"), set.New("a"))
	if _, known := c.Lookup("r1", cd, "a"); known {
		t.Fatal("nil cache knows a verdict")
	}
	knownTrue, unknown := c.Partition("r1", cd, set.New("a", "b"))
	if !knownTrue.IsEmpty() || !unknown.Equal(set.New("a", "b")) {
		t.Fatalf("nil Partition = %v,%v; want nothing known", knownTrue, unknown)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil Stats = %+v, want zero", st)
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
				c.PutMembership("r1", cd, item, i%2 == 0)
				c.Lookup("r1", cd, item)
				c.Partition("r1", cd, set.New(item))
			}
		}(w)
	}
	wg.Wait()
	if _, mem := c.Len(); mem != 50 {
		t.Fatalf("memberships = %d, want 50", mem)
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
// repeated selection, binding, or fully-covered semijoin reaches the inner
// source only once.
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

	// The cached selection is complete, so any binding probe and any
	// semijoin over probed items answer locally too.
	if !first.IsEmpty() {
		item := first.Items()[0]
		ok, err := cs.SelectBinding(context.Background(), cd, item)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("binding %s should match — it came from the selection", item)
		}
		if inner.bindings != 0 {
			t.Fatalf("inner bindings = %d, want 0", inner.bindings)
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

// TestCacheBounded floods a CachedSource the way a peer of fqsource -cache
// can: more distinct bindings than the cache admits. The cache stays under
// its bound, keeps its counters across the drop, and answers correctly after
// it.
func TestCacheBounded(t *testing.T) {
	sc := workload.DMV()
	cs := NewCachedSource(sc.Sources[0], NewCache())
	ctx, cd := context.Background(), sc.Conds[0]
	want, err := sc.Sources[0].Select(ctx, cd)
	if err != nil || want.IsEmpty() {
		t.Fatalf("sq = %v, %v", want, err)
	}
	const flood = maxCacheEntries + 1000
	for i := 0; i < flood; i++ {
		if ok, err := cs.SelectBinding(ctx, cd, fmt.Sprintf("X%07d", i)); err != nil || ok {
			t.Fatalf("binding %d = %v, %v", i, ok, err)
		}
		if i%1000 == 0 || i == flood-1 {
			if sel, mem := cs.Cache().Len(); sel+mem > maxCacheEntries {
				t.Fatalf("after %d bindings the cache holds %d entries, bound %d", i+1, sel+mem, maxCacheEntries)
			}
		}
	}
	if sel, mem := cs.Cache().Len(); sel+mem != flood-maxCacheEntries {
		t.Fatalf("the cache holds %d entries, want the %d stored since it dropped everything", sel+mem, flood-maxCacheEntries)
	}
	if st := cs.Cache().Stats(); st.Misses != flood {
		t.Fatalf("stats = %+v, want the %d misses kept across the drop", st, flood)
	}
	for _, item := range want.Items() {
		if ok, err := cs.SelectBinding(ctx, cd, item); err != nil || !ok {
			t.Fatalf("binding %s after the drop = %v, %v", item, ok, err)
		}
	}
	if got, err := cs.Select(ctx, cd); err != nil || !got.Equal(want) {
		t.Fatalf("sq after the drop = %v, %v, want %v", got, err, want)
	}
}

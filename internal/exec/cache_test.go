package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
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

// TestCacheBounded floods the cache with semijoin verdicts over more
// distinct items than it may hold, as a roster epoch's mix of distinct
// queries would. The cache stays under its byte bound (the one condition
// that outgrew it is forgotten) and answers correctly afterwards: every
// verdict it still gives is right, and a later selection is held whole.
func TestCacheBounded(t *testing.T) {
	c, cd := NewCache(), mustCond(t, "V = 'sp'")
	want := set.New("J55", "T21")
	const perCall, itemBytes = 10000, 64
	held := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.store.Bytes()
	}
	grew, shrank := false, false
	for sent, n := 0, 0; sent < 2*maxCacheBytes; n++ {
		items := make([]string, perCall)
		for i := range items {
			items[i] = fmt.Sprintf("X%0*d", itemBytes-1, n*perCall+i)
		}
		before := held()
		c.PutSemijoin("r1", cd, set.FromSorted(items), set.Set{})
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
	probe := want.Union(set.New(fmt.Sprintf("X%0*d", itemBytes-1, 0)))
	if knownTrue, unknown := c.Partition("r1", cd, probe); !knownTrue.IsEmpty() || !want.Diff(unknown).IsEmpty() {
		t.Fatalf("after the flood Partition(%v) = %v known true, %v unknown; no item of %v is known", probe, knownTrue, unknown, want)
	}
	c.PutSemijoin("r1", cd, probe, want)
	if knownTrue, unknown := c.Partition("r1", cd, probe); !knownTrue.Equal(want) || !unknown.IsEmpty() {
		t.Fatalf("after sjq Partition(%v) = %v known true, %v unknown; want %v, none", probe, knownTrue, unknown, want)
	}
	c.PutSelect("r1", cd, want)
	if got, ok := c.Select("r1", cd); !ok || !got.Equal(want) {
		t.Fatalf("sq after the flood = %v, %v; want %v", got, ok, want)
	}
}

// streamCounter is a source whose streamed selections are counted, item by
// item as the mediator pulls them; with cut set, the next one fails
// (transiently) after its first batch.
type streamCounter struct {
	source.Source
	mu      sync.Mutex
	streams int
	pulled  int
	cut     bool
}

func (s *streamCounter) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	it, err := source.OpenSelectStream(ctx, s.Source, c, batch)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams++
	cut := s.cut
	s.cut = false
	return &countedIter{Iter: it, src: s, cut: cut}, nil
}

type countedIter struct {
	set.Iter
	src  *streamCounter
	cut  bool
	sent bool
}

func (it *countedIter) Next(ctx context.Context) ([]string, error) {
	if it.cut && it.sent {
		return nil, fmt.Errorf("stream cut after its first batch: %w", source.ErrTransient)
	}
	batch, err := it.Iter.Next(ctx)
	it.sent = true
	it.src.mu.Lock()
	it.src.pulled += len(batch)
	it.src.mu.Unlock()
	return batch, err
}

// wideSources are two sources of one schema: r1 holds n items, every one
// satisfying "A >= 0", behind a streamCounter; r2 holds none that do.
func wideSources(n int) (*streamCounter, source.Source) {
	schema := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "A", Kind: relation.KindInt},
	)
	wide, none := relation.NewRelation(schema), relation.NewRelation(schema)
	for i := 0; i < n; i++ {
		wide.MustInsert(relation.String(workload.ItemName(i)), relation.Int(int64(i)))
	}
	none.MustInsert(relation.String(workload.ItemName(0)), relation.Int(-1))
	r1 := &streamCounter{Source: source.NewWrapper("r1", source.NewRowBackend(wide), source.Capabilities{})}
	return r1, source.NewWrapper("r2", source.NewRowBackend(none), source.Capabilities{})
}

// TestPipelinedRunCachesOnlyCompleteSelections: a pipelined run puts a
// streamed selection in the shared cache only once the stream has been
// drained whole (TestCacheParity covers that case). A stream that fails
// after its first batch, and one whose consumers all abandon it, leave no
// complete entry, so the next run asks the source again and answers right.
func TestPipelinedRunCachesOnlyCompleteSelections(t *testing.T) {
	const n = 4096
	all, sources := mustCond(t, "A >= 0"), []string{"r1", "r2"}
	whole := &plan.Plan{
		Conds:   []cond.Cond{all},
		Sources: sources,
		Steps:   []plan.Step{{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 0}},
		Result:  "X",
	}
	for _, tc := range []struct {
		name string
		// first runs the plan that must leave no entry.
		first func(t *testing.T, r1 *streamCounter, ex *Executor)
	}{
		{"failed", func(t *testing.T, r1 *streamCounter, ex *Executor) {
			r1.cut = true
			if _, err := ex.Run(context.Background(), whole); err == nil {
				t.Fatal("a run whose stream was cut succeeded")
			}
		}},
		{"abandoned", func(t *testing.T, r1 *streamCounter, ex *Executor) {
			// X ∩ Y with Y empty: the intersection ends at Y's end and
			// abandons X's edge, its only consumer, part way.
			p := &plan.Plan{
				Conds:   []cond.Cond{all},
				Sources: sources,
				Steps: []plan.Step{
					{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 0},
					{Kind: plan.KindSelect, Out: "Y", Cond: 0, Source: 1},
					{Kind: plan.KindIntersect, Out: "Z", Cond: -1, Source: -1, In: []string{"X", "Y"}},
				},
				Result: "Z",
			}
			res, err := ex.Run(context.Background(), p)
			if err != nil || !res.Answer.IsEmpty() {
				t.Fatalf("X ∩ ∅ = %v, %v", res.Answer, err)
			}
			if r1.pulled >= n {
				t.Fatalf("the run pulled all %d items of X: its consumer never abandoned it", r1.pulled)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r1, r2 := wideSources(n)
			cache := NewCache()
			ex := &Executor{Sources: []source.Source{r1, r2}, Streaming: true, BatchSize: 1, Cache: cache}
			tc.first(t, r1, ex)
			if out, ok := cache.Select("r1", all); ok {
				t.Fatalf("the first run left a complete entry of %d items", out.Len())
			}
			res, err := ex.Run(context.Background(), whole)
			if err != nil {
				t.Fatal(err)
			}
			if res.Answer.Len() != n || r1.streams != 2 || res.SourceQueries != 1 {
				t.Fatalf("the next run answered %d of %d items with %d queries, the source streamed %d times; want the source asked again",
					res.Answer.Len(), n, res.SourceQueries, r1.streams)
			}
			if out, ok := cache.Select("r1", all); !ok || !out.Equal(res.Answer) {
				t.Fatalf("the drained run cached %d items (complete %v), want its answer", out.Len(), ok)
			}
		})
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

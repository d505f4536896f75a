package exec

import (
	"context"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// Cache is the mediator-side answer cache consulted before any selection or
// binding query. It holds two structures per (source, canonical condition)
// pair:
//
//   - a selection-result cache: the full item set sq(c, R) returned by a
//     completed selection, which answers membership for EVERY item (a
//     selection is complete, so absence means "does not satisfy");
//   - a tri-state membership cache: per-item verdicts learned from
//     passed-binding selections and native semijoins, where only the probed
//     items are known and everything else stays unknown.
//
// Sources are autonomous (Section 2.1): a cached answer is only guaranteed
// consistent with the source as of the exchange that produced it. The cache
// is therefore safe within one query execution (sources are assumed stable
// for the duration of a plan, exactly the assumption the optimizer's
// statistics already make) and is a freshness trade-off across queries;
// callers that share a Cache across queries own the decision of when to
// drop it (the mediator keeps one per roster epoch). All methods are safe for concurrent use — the scheduler consults
// the cache from many binding workers at once.
type Cache struct {
	mu sync.Mutex
	// selects maps source -> condition -> complete selection result.
	selects map[string]map[string]set.Set
	// members maps source -> condition -> item -> verdict.
	members map[string]map[string]map[string]bool
	// entries counts what both maps hold, against maxCacheEntries.
	entries int

	hits   int
	misses int
}

// maxCacheEntries bounds the cache, selection results and membership
// verdicts together. A CachedSource behind a public listener (fqsource
// -cache) stores an entry for every distinct (condition, item) a peer sends,
// so without a bound a peer chooses the process's memory. At the bound
// everything is dropped: the answers are fetched again, never wrong.
const maxCacheEntries = 1 << 16

// NewCache returns an empty cache.
func NewCache() *Cache {
	c := &Cache{}
	c.drop()
	return c
}

// drop forgets every cached answer; the caller holds the lock (or owns c).
func (c *Cache) drop() {
	c.selects = map[string]map[string]set.Set{}
	c.members = map[string]map[string]map[string]bool{}
	c.entries = 0
}

// admit accounts one new entry, making room first when the cache is full;
// the caller holds the lock and adds the entry afterwards.
func (c *Cache) admit() {
	if c.entries >= maxCacheEntries {
		c.drop()
	}
	c.entries++
}

// CacheStats is a snapshot of the cache's hit/miss counters. A "hit" is one
// source query avoided (a whole selection, or one binding probe); a "miss"
// is a consultation that had to go to the source.
type CacheStats struct {
	Hits   int
	Misses int
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// Clear drops all cached answers and counters. Call it when cached source
// state must be considered stale (the sources are autonomous and may have
// changed).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop()
	c.hits = 0
	c.misses = 0
}

// Len reports how many cached selection results and membership verdicts the
// cache holds.
func (c *Cache) Len() (selections, memberships int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.selects {
		selections += len(m)
	}
	for _, m := range c.members {
		for _, items := range m {
			memberships += len(items)
		}
	}
	return selections, memberships
}

// condKey canonicalizes a condition for cache keying. Cond.String renders
// the parsed tree, so equal conditions render equally regardless of the
// original SQL spelling.
func condKey(c cond.Cond) string { return c.String() }

// Select returns the cached sq(c, src) result, counting a hit or miss.
func (c *Cache) Select(src string, cd cond.Cond) (set.Set, bool) {
	if c == nil {
		return set.Set{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.selects[src][condKey(cd)]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return out, ok
}

// PutSelect stores a complete selection result.
func (c *Cache) PutSelect(src string, cd cond.Cond, out set.Set) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := condKey(cd)
	if _, ok := c.selects[src][key]; !ok {
		c.admit()
	}
	m, ok := c.selects[src]
	if !ok {
		m = map[string]set.Set{}
		c.selects[src] = m
	}
	m[key] = out
}

// Lookup answers the membership question "does item satisfy cd at src?"
// from cached state: known reports whether the cache can answer at all, and
// match is the verdict when it can. A cached complete selection answers for
// every item; otherwise only explicitly probed items are known. Counts a hit
// when known, a miss otherwise.
func (c *Cache) Lookup(src string, cd cond.Cond, item string) (match, known bool) {
	if c == nil {
		return false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := condKey(cd)
	if sel, ok := c.selects[src][key]; ok {
		c.hits++
		return sel.Contains(item), true
	}
	if v, ok := c.members[src][key][item]; ok {
		c.hits++
		return v, true
	}
	c.misses++
	return false, false
}

// PutMembership records one probed item's verdict.
func (c *Cache) PutMembership(src string, cd cond.Cond, item string, match bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(src, condKey(cd), item, match)
}

// PutSemijoin records the verdict of every item of a completed semijoin
// sjq(cd, src, y) with result out ⊆ y: members of out satisfy cd, the rest
// of y do not.
func (c *Cache) PutSemijoin(src string, cd cond.Cond, y, out set.Set) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := condKey(cd)
	for _, item := range y.Items() {
		c.put(src, key, item, out.Contains(item))
	}
}

// put stores one verdict; the caller holds the lock.
func (c *Cache) put(src, key, item string, match bool) {
	if _, ok := c.members[src][key][item]; !ok {
		c.admit()
	}
	bySrc, ok := c.members[src]
	if !ok {
		bySrc = map[string]map[string]bool{}
		c.members[src] = bySrc
	}
	byCond, ok := bySrc[key]
	if !ok {
		byCond = map[string]bool{}
		bySrc[key] = byCond
	}
	byCond[item] = match
}

// Partition splits y by cached knowledge of cd at src into the items known
// to satisfy it, and the items whose verdict is unknown (items known NOT to
// satisfy are dropped — they cannot be in the semijoin result). The hit/miss
// counters account one consultation per item of y.
func (c *Cache) Partition(src string, cd cond.Cond, y set.Set) (knownTrue set.Set, unknown set.Set) {
	if c == nil {
		return set.Set{}, y
	}
	var trues, unk []string
	for _, item := range y.Items() {
		match, known := c.Lookup(src, cd, item)
		switch {
		case known && match:
			trues = append(trues, item)
		case !known:
			unk = append(unk, item)
		}
	}
	return set.FromSorted(trues), set.FromSorted(unk)
}

// CachedSource is the caching layer: selection, binding and semijoin queries
// are answered from (and recorded into) a shared Cache. It lets a long-lived
// endpoint — the wire server of cmd/fqsource, or any roster shared across
// mediator queries — skip repeated identical source traffic. Every other
// operation passes through uncached: records are not what the cache holds,
// and a Bloom semijoin's filter is set-specific and its answer carries false
// positives.
type CachedSource struct {
	source.Layer
	cache *Cache
}

var _ source.Source = (*CachedSource)(nil)

// NewCachedSource wraps src with the given cache (which may be shared among
// several sources; entries are keyed by source name).
func NewCachedSource(src source.Source, cache *Cache) *CachedSource {
	s := &CachedSource{cache: cache}
	s.Layer = source.Over(src, s.exchange)
	return s
}

// Cache returns the underlying cache (for stats and Clear).
func (s *CachedSource) Cache() *Cache { return s.cache }

// meterCache emits hit/miss counters for one cache consultation to the
// context's registry (a no-op without one).
func (s *CachedSource) meterCache(ctx context.Context, hits, misses int) {
	met := obs.Meter(ctx)
	met.Counter(obs.MCacheHits, "source", s.Name()).Add(int64(hits))
	met.Counter(obs.MCacheMisses, "source", s.Name()).Add(int64(misses))
}

// exchange is the layer's handler.
func (s *CachedSource) exchange(ctx context.Context, call source.Call) (source.Reply, error) {
	name, c := s.Name(), call.Cond
	switch {
	case !source.Supports(s.Caps(), call.Op):
		// Not answered from the cache either: the source is asked, for its
		// canonical error.
	case call.Op == source.OpSelect:
		// A cached selection also serves a streamed call, as batches of the
		// set; a streamed miss passes through and stays uncached, since the
		// consumer may abandon it before it is complete.
		if out, ok := s.cache.Select(name, c); ok {
			s.meterCache(ctx, 1, 0)
			if call.Streamed() {
				return source.Reply{Stream: set.IterOf(out, call.Batch)}, nil
			}
			return source.Reply{Items: out}, nil
		}
		s.meterCache(ctx, 0, 1)
		reply, err := source.Do(ctx, s.Source, call)
		if err == nil && !call.Streamed() {
			s.cache.PutSelect(name, c, reply.Items)
		}
		return reply, err
	case call.Op == source.OpBinding:
		if match, known := s.cache.Lookup(name, c, call.Item); known {
			s.meterCache(ctx, 1, 0)
			return source.Reply{Match: match}, nil
		}
		s.meterCache(ctx, 0, 1)
		reply, err := source.Do(ctx, s.Source, call)
		if err == nil {
			s.cache.PutMembership(name, c, call.Item, reply.Match)
		}
		return reply, err
	case call.Op == source.OpSemi:
		// Cached verdicts shrink the shipped set, and a semijoin whose every
		// item is already known costs no exchange at all.
		knownTrue, unknown := s.cache.Partition(name, c, call.Items)
		s.meterCache(ctx, call.Items.Len()-unknown.Len(), unknown.Len())
		if unknown.IsEmpty() {
			return source.Reply{Items: knownTrue}, nil
		}
		call.Items = unknown
		reply, err := source.Do(ctx, s.Source, call)
		if err != nil {
			return reply, err
		}
		s.cache.PutSemijoin(name, c, unknown, reply.Items)
		reply.Items = reply.Items.Union(knownTrue)
		return reply, nil
	}
	return source.Do(ctx, s.Source, call)
}

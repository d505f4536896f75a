package exec

import (
	"context"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/lru"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// Cache is the source-answer cache consulted before any selection or
// semijoin: one keying of the lru store, an entry per (source, canonical
// condition) holding what is known of that condition there, as sets. A
// completed selection knows everything (absence means "does not satisfy");
// a semijoin, native or emulated, knows the items it probed, and everything
// else stays unknown.
//
// Sources are autonomous (Section 2.1): a cached answer is only guaranteed
// consistent with the source as of the exchange that produced it. The cache
// is therefore safe within one query execution (sources are assumed stable
// for the duration of a plan, exactly the assumption the optimizer's
// statistics already make) and is a freshness trade-off across queries;
// callers that share a Cache across queries own the decision of when to
// drop it (the mediator keeps one per roster epoch). A nil Cache knows
// nothing and keeps nothing. All methods are safe for concurrent use, each
// one lock and one rendering of the condition.
type Cache struct {
	mu    sync.Mutex
	store *lru.Store[cacheKey, known]
}

// cacheKey is a source's name and Cond.String, which renders the parsed
// tree: equal conditions render equally whatever the original SQL spelling.
type cacheKey struct{ src, cond string }

// known is what the cache holds of one condition at one source: the items
// that satisfy it, the items that do not, and whether yes is all there are.
type known struct {
	yes, no  set.Set
	complete bool
}

// maxCacheBytes bounds the cache in the unit PeakBytes and the answer cache
// count: set.Bytes of the items held, plus each entry's key. A CachedSource
// behind a public listener (fqsource -cache) stores what any peer asks
// about, so without a bound a peer chooses the process's memory. Past it the
// least recently used conditions are forgotten, and a condition that alone
// outgrows it is forgotten itself: the answers are fetched again, never
// wrong.
const maxCacheBytes = 8 << 20

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{store: lru.New[cacheKey, known](0, maxCacheBytes, nil)}
}

// keyOf renders the key; callers do it before taking the lock.
func keyOf(src string, cd cond.Cond) cacheKey { return cacheKey{src, cd.String()} }

// put stores k under key at its cost; the caller holds the lock.
func (c *Cache) put(key cacheKey, k known) {
	c.store.Put(key, k, int64(len(key.src)+len(key.cond)+k.yes.Bytes()+k.no.Bytes()))
}

// Select returns the cached sq(cd, src) result, when a completed selection
// is what the cache knows.
func (c *Cache) Select(src string, cd cond.Cond) (set.Set, bool) {
	if c == nil {
		return set.Set{}, false
	}
	key := keyOf(src, cd)
	c.mu.Lock()
	defer c.mu.Unlock()
	k, _ := c.store.Get(key)
	return k.yes, k.complete
}

// PutSelect stores a complete selection result.
func (c *Cache) PutSelect(src string, cd cond.Cond, out set.Set) {
	if c == nil {
		return
	}
	key := keyOf(src, cd)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, known{yes: out, complete: true})
}

// Partition splits y by cached knowledge of cd at src into the items known
// to satisfy it and the items whose verdict is unknown (items known NOT to
// satisfy are dropped — they cannot be in the semijoin result). One
// consultation per item of y: len(y) - len(unknown) of them are hits.
func (c *Cache) Partition(src string, cd cond.Cond, y set.Set) (knownTrue, unknown set.Set) {
	if c == nil {
		return set.Set{}, y
	}
	key := keyOf(src, cd)
	c.mu.Lock()
	k, _ := c.store.Get(key)
	c.mu.Unlock()
	// Sets are immutable, so the algebra runs outside the lock.
	knownTrue = y.Intersect(k.yes)
	if !k.complete {
		unknown = y.Diff(k.yes).Diff(k.no)
	}
	return knownTrue, unknown
}

// PutSemijoin records the verdict of every item of a completed semijoin
// sjq(cd, src, y) with result out ⊆ y: members of out satisfy cd, the rest
// of y do not.
func (c *Cache) PutSemijoin(src string, cd cond.Cond, y, out set.Set) {
	if c == nil || y.IsEmpty() {
		return
	}
	key := keyOf(src, cd)
	c.mu.Lock()
	defer c.mu.Unlock()
	k, _ := c.store.Get(key)
	if k.complete {
		return
	}
	c.put(key, known{yes: k.yes.Union(out), no: k.no.Union(y.Diff(out))})
}

// CachedSource is the caching layer: selection and semijoin queries are
// answered from (and recorded into) a shared Cache. It lets a long-lived
// endpoint — the wire server of cmd/fqsource, or any roster shared across
// mediator queries — skip repeated identical source traffic. Every other
// operation passes through uncached: records are not what the cache holds, a
// Bloom semijoin's filter is set-specific and its answer carries false
// positives, and one binding against an ordered view is a binary search,
// which a cache consultation does not beat.
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

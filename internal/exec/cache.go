package exec

import (
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/lru"
	"fusionq/internal/set"
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
// count: set.Bytes of the items held, plus each entry's key. The mediator
// keeps one cache for a whole roster epoch, and every distinct condition a
// query asks adds an entry, so without a bound the cache grows with the
// epoch's query mix. Past it the least recently used conditions are
// forgotten, and a condition that alone outgrows it is forgotten itself: the
// answers are fetched again, never wrong.
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

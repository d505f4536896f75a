package service

import (
	"sync"
	"time"

	"fusionq/internal/lru"
	"fusionq/internal/obs"
	"fusionq/internal/wire"
)

// AnswerCacheConfig tunes an AnswerCache.
type AnswerCacheConfig struct {
	// TTL bounds how long an answer may be served after it was stored
	// (default 30s). Sources are autonomous — a fusion answer is only ever a
	// snapshot — so the TTL is the service's staleness contract.
	TTL time.Duration
	// MaxEntries bounds the number of cached answers (default 1024);
	// negative disables the cache.
	MaxEntries int
	// MaxBytes bounds the bytes of the entries' item blocks, each item's
	// bytes and its length's uvarint (an answer larger than it is not
	// kept); 0 means unbounded by bytes.
	MaxBytes int64
	// Metrics receives the fq_answer_cache_* metrics. Nil means the
	// process-wide default registry.
	Metrics *obs.Registry
	// Now overrides the clock for TTL decisions (tests). Nil means time.Now.
	Now func() time.Time
}

// AnswerCache memoizes whole fusion answers (the merge-attribute item sets)
// by canonical query key: one keying of the lru store, as exec.Cache is
// (that one memoizes per-source sub-answers inside execution; this one
// answers repeated whole queries without admitting them to execution at
// all). Its own are the pin and the encoding: an entry is served only at the
// roster epoch and up to the expiry instant it was put with, and holds its
// items as the wire's item block (wire.EncodeItems), which is also their
// copy. Safe for concurrent use.
type AnswerCache struct {
	cfg AnswerCacheConfig

	mu           sync.Mutex
	store        *lru.Store[string, answer]
	highWater    int
	hits, misses int64
}

type answer struct {
	epoch   uint64
	items   wire.EncodedItems
	expires time.Time
}

// AnswerCacheStats is a point-in-time summary used by tests and expvar-style
// reporting. Hits+Misses equals the number of Get calls.
type AnswerCacheStats struct {
	Entries   int
	Bytes     int64
	HighWater int // most entries ever held at once
	Hits      int64
	Misses    int64
}

// NewAnswerCache builds an answer cache.
func NewAnswerCache(cfg AnswerCacheConfig) *AnswerCache {
	if cfg.TTL <= 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 1024
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &AnswerCache{cfg: cfg}
	c.store = lru.New(cfg.MaxEntries, cfg.MaxBytes, func(string, answer) { c.evicted("size") })
	return c
}

func (c *AnswerCache) disabled() bool { return c == nil || c.cfg.MaxEntries < 0 }

// Get returns the cached answer items for key, valid only at the given
// roster epoch and before the entry's expiry. Expired entries are evicted
// (reason "ttl"), other-epoch entries too (reason "stale"); both count as
// misses — the cache never serves an expired or stale answer. The slice is
// the entry's own, sorted as it was put, and must not be modified.
func (c *AnswerCache) Get(key string, epoch uint64) ([]string, bool) {
	enc, ok := c.get(key, epoch)
	return enc.Items(), ok
}

// get is Get returning the entry's encoding.
func (c *AnswerCache) get(key string, epoch uint64) (wire.EncodedItems, bool) {
	if c.disabled() {
		return wire.EncodedItems{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.store.Get(key)
	reason := ""
	switch {
	case !ok:
	case c.cfg.Now().After(a.expires):
		reason = "ttl"
	case a.epoch != epoch:
		reason = "stale"
	}
	if reason != "" {
		c.store.Remove(key)
		c.evicted(reason)
		c.gauges()
		ok = false
	}
	if !ok {
		c.misses++
		c.cfg.Metrics.Counter(obs.MAnswerCacheMisses).Inc()
		return wire.EncodedItems{}, false
	}
	c.hits++
	c.cfg.Metrics.Counter(obs.MAnswerCacheHits).Inc()
	return a.items, true
}

// Put stores the answer items for key at the given roster epoch, stamping
// the TTL from now, and returns them encoded; the store evicts
// least-recently-used entries (reason "size") until both bounds hold. The
// entry is the items' item block, which is also their copy: an answer's
// items are substrings of whatever they were decoded or scanned from (the
// strings a wire frame's block was read into, a source's rows), and an
// entry that kept them would retain all of that, which the byte accounting
// would not see. A disabled cache encodes nothing and returns the zero
// value.
func (c *AnswerCache) Put(key string, epoch uint64, items []string) wire.EncodedItems {
	if c.disabled() {
		return wire.EncodedItems{}
	}
	enc := wire.EncodeItems(items)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store.Put(key, answer{epoch: epoch, items: enc, expires: c.cfg.Now().Add(c.cfg.TTL)}, int64(enc.Len()))
	c.highWater = max(c.highWater, c.store.Len())
	c.gauges()
	return enc
}

// Stats reports the cache's current and high-water footprint and its
// hit/miss ledger.
func (c *AnswerCache) Stats() AnswerCacheStats {
	if c.disabled() {
		return AnswerCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnswerCacheStats{
		Entries:   c.store.Len(),
		Bytes:     c.store.Bytes(),
		HighWater: c.highWater,
		Hits:      c.hits,
		Misses:    c.misses,
	}
}

// evicted and gauges charge the registry; the caller holds the lock.
func (c *AnswerCache) evicted(reason string) {
	c.cfg.Metrics.Counter(obs.MAnswerCacheEvictions, "reason", reason).Inc()
}

func (c *AnswerCache) gauges() {
	c.cfg.Metrics.Gauge(obs.MAnswerCacheEntries).Set(int64(c.store.Len()))
	c.cfg.Metrics.Gauge(obs.MAnswerCacheBytes).Set(c.store.Bytes())
}

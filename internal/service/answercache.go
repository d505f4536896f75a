package service

import (
	"container/list"
	"strings"
	"sync"
	"time"

	"fusionq/internal/obs"
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
	// MaxBytes bounds the cache's approximate item-byte footprint; 0 means
	// unbounded by bytes.
	MaxBytes int64
	// Metrics receives the fq_answer_cache_* metrics. Nil means the
	// process-wide default registry.
	Metrics *obs.Registry
	// Now overrides the clock for TTL decisions (tests). Nil means time.Now.
	Now func() time.Time
}

// AnswerCache memoizes whole fusion answers (the merge-attribute item sets)
// by canonical query key, each entry pinned to its roster epoch and an
// expiry instant. It sits above exec.Cache — that one memoizes per-source
// sub-answers inside execution; this one answers repeated whole queries
// without admitting them to execution at all. Lookup never returns an
// expired or stale entry; capacity overflow evicts least-recently-used.
// Safe for concurrent use.
type AnswerCache struct {
	cfg     AnswerCacheConfig
	metrics *obs.Registry
	now     func() time.Time

	mu        sync.Mutex
	entries   map[string]*ansEntry
	lru       *list.List // front = most recently used
	bytes     int64
	highWater int
	hits      int64
	misses    int64
}

type ansEntry struct {
	key     string
	epoch   uint64
	items   []string
	bytes   int64
	expires time.Time
	elem    *list.Element
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
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &AnswerCache{
		cfg:     cfg,
		metrics: metrics,
		now:     now,
		entries: map[string]*ansEntry{},
		lru:     list.New(),
	}
}

func (c *AnswerCache) disabled() bool { return c == nil || c.cfg.MaxEntries < 0 }

// Get returns the cached answer items for key, valid only at the given
// roster epoch and before the entry's expiry. Expired entries are evicted
// (reason "ttl"), other-epoch entries too (reason "stale"); both count as
// misses — the cache never serves an expired or stale answer. The slice is
// the entry's own, sorted as it was put, and must not be modified.
func (c *AnswerCache) Get(key string, epoch uint64) ([]string, bool) {
	if c.disabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && c.now().After(e.expires) {
		c.removeLocked(e, "ttl")
		ok = false
	}
	if ok && e.epoch != epoch {
		c.removeLocked(e, "stale")
		ok = false
	}
	if !ok {
		c.misses++
		c.metrics.Counter(obs.MAnswerCacheMisses).Inc()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	c.metrics.Counter(obs.MAnswerCacheHits).Inc()
	return e.items, true
}

// Put stores a copy of the answer items for key at the given roster epoch,
// stamping the TTL from now and evicting least-recently-used entries until
// both the entry and byte bounds hold. The copy is one slice over one block
// of exactly the items' bytes: an answer's items are substrings of whatever
// they were decoded or scanned from (wire frames' blocks, a source's rows),
// and an entry that kept them would retain all of that, which the byte
// accounting would not see.
func (c *AnswerCache) Put(key string, epoch uint64, items []string) {
	if c.disabled() {
		return
	}
	var n int64
	for _, it := range items {
		n += int64(len(it))
	}
	var block strings.Builder
	block.Grow(int(n))
	for _, it := range items {
		block.WriteString(it)
	}
	own, rest := make([]string, len(items)), block.String()
	for i, it := range items {
		own[i], rest = rest[:len(it)], rest[len(it):]
	}
	items = own
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes += n - e.bytes
		e.epoch, e.items, e.bytes = epoch, items, n
		e.expires = c.now().Add(c.cfg.TTL)
		c.lru.MoveToFront(e.elem)
	} else {
		e := &ansEntry{key: key, epoch: epoch, items: items, bytes: n, expires: c.now().Add(c.cfg.TTL)}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.bytes += n
	}
	for len(c.entries) > c.cfg.MaxEntries || (c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes && len(c.entries) > 1) {
		c.removeLocked(c.lru.Back().Value.(*ansEntry), "size")
	}
	if len(c.entries) > c.highWater {
		c.highWater = len(c.entries)
	}
	c.gaugesLocked()
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
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		HighWater: c.highWater,
		Hits:      c.hits,
		Misses:    c.misses,
	}
}

func (c *AnswerCache) removeLocked(e *ansEntry, reason string) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	c.metrics.Counter(obs.MAnswerCacheEvictions, "reason", reason).Inc()
	c.gaugesLocked()
}

func (c *AnswerCache) gaugesLocked() {
	c.metrics.Gauge(obs.MAnswerCacheEntries).Set(int64(len(c.entries)))
	c.metrics.Gauge(obs.MAnswerCacheBytes).Set(c.bytes)
}

package service

import (
	"context"
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
// by canonical query key: one keying of the lru store, as the plan cache is,
// answering repeated whole queries without admitting them to execution at
// all. Its own are the pin and the encoding: an entry is served only at the
// roster epoch and up to the expiry instant it was put with, and holds its
// items as the wire's item block (wire.EncodeItems), which is also their
// copy.
//
// It also keeps the executions of the answers it missed, one per key and
// epoch: the first query to miss executes and lands the answer (land), and
// a query that misses the same key and epoch meanwhile waits for it (wait)
// instead of executing too. The entry is stored and the execution ended
// under one lock, so a query that misses an answer finds it executing.
// Safe for concurrent use.
type AnswerCache struct {
	cfg AnswerCacheConfig

	mu      sync.Mutex
	store   *lru.Store[string, answer]
	flights map[flightKey]*flight
}

type answer struct {
	epoch   uint64
	items   wire.EncodedItems
	expires time.Time
}

type flightKey struct {
	key   string
	epoch uint64
}

// flight is what waits on one execution of an answer the cache missed: the
// flights map holds it under its key and epoch from the first waiter on, and
// a nil one while the executing query has none. done is closed when the
// execution lands; items and shared are written before that, and items are
// the answer only when shared: a failed, cancelled, repaired or records
// execution shares nothing.
type flight struct {
	done   chan struct{}
	items  wire.EncodedItems
	shared bool
}

// AnswerCacheStats is a point-in-time summary of the cache's footprint.
// Hits and misses are the fq_answer_cache_* counters'.
type AnswerCacheStats struct {
	Entries int
	Bytes   int64
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
	c := &AnswerCache{cfg: cfg, flights: map[flightKey]*flight{}}
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
	enc, ok := c.get(key, epoch, true)
	return enc.Items(), ok
}

// get is Get returning the entry's encoding. It charges a miss only when
// chargeMiss is set: a probe that another lookup follows leaves the miss to
// that one.
func (c *AnswerCache) get(key string, epoch uint64, chargeMiss bool) (wire.EncodedItems, bool) {
	if c.disabled() {
		return wire.EncodedItems{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, ok := c.lookup(key, epoch)
	if ok || chargeMiss {
		c.count(ok)
	}
	return enc, ok
}

// enter is get for a query that executes on a miss. A hit returns the
// entry's encoding. On a miss, lead is set when no identical query (key and
// epoch) is executing: the caller executes it now and must land it.
// Otherwise f is that execution's flight, for the caller to wait on. A
// disabled cache misses and the caller leads. The hit or miss is charged,
// unless the caller waited already, on an execution that shared nothing:
// it was charged its miss then, and a hit now is charged as coalesced.
func (c *AnswerCache) enter(key string, epoch uint64, waited bool) (enc wire.EncodedItems, hit bool, f *flight, lead bool) {
	if c.disabled() {
		return wire.EncodedItems{}, false, nil, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, hit = c.lookup(key, epoch)
	switch {
	case !waited:
		c.count(hit)
	case hit:
		c.cfg.Metrics.Counter(obs.MAnswerCoalesced).Inc()
	}
	if hit {
		return enc, true, nil, false
	}
	fk := flightKey{key, epoch}
	f, flying := c.flights[fk]
	if !flying {
		c.flights[fk] = nil
		return enc, false, nil, true
	}
	if f == nil {
		f = &flight{done: make(chan struct{})}
		c.flights[fk] = f
	}
	return enc, false, f, false
}

// land ends the execution of key at epoch that enter had the caller lead:
// when share is set it stores items as Put does and hands their encoding to
// the execution's waiters, otherwise the waiters get nothing.
func (c *AnswerCache) land(key string, epoch uint64, items []string, share bool) wire.EncodedItems {
	if c.disabled() {
		return wire.EncodedItems{}
	}
	var enc wire.EncodedItems
	if share {
		enc = wire.EncodeItems(items)
	}
	fk := flightKey{key, epoch}
	c.mu.Lock()
	if share {
		c.put(key, epoch, enc)
	}
	f := c.flights[fk]
	delete(c.flights, fk)
	c.mu.Unlock()
	if f != nil {
		f.items, f.shared = enc, share
		close(f.done)
	}
	return enc
}

// wait waits for the flight f to land and returns the answer it shares,
// charging fq_answer_coalesced_total; shared is false when it shares none.
// ctx ending first returns its error.
func (c *AnswerCache) wait(ctx context.Context, f *flight) (enc wire.EncodedItems, shared bool, err error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return wire.EncodedItems{}, false, ctx.Err()
	}
	if f.shared {
		c.cfg.Metrics.Counter(obs.MAnswerCoalesced).Inc()
	}
	return f.items, f.shared, nil
}

// lookup finds key's entry at epoch, evicting an expired one (reason "ttl")
// or another epoch's (reason "stale"); the caller holds the lock.
func (c *AnswerCache) lookup(key string, epoch uint64) (wire.EncodedItems, bool) {
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
		return wire.EncodedItems{}, false
	}
	return a.items, ok
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
	c.put(key, epoch, enc)
	return enc
}

// put stores an entry; the caller holds the lock.
func (c *AnswerCache) put(key string, epoch uint64, enc wire.EncodedItems) {
	c.store.Put(key, answer{epoch: epoch, items: enc, expires: c.cfg.Now().Add(c.cfg.TTL)}, int64(enc.Len()))
	c.gauges()
}

// Stats reports the cache's current footprint.
func (c *AnswerCache) Stats() AnswerCacheStats {
	if c.disabled() {
		return AnswerCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnswerCacheStats{Entries: c.store.Len(), Bytes: c.store.Bytes()}
}

// count, evicted and gauges charge the registry; the caller holds the lock.
func (c *AnswerCache) count(hit bool) {
	if hit {
		c.cfg.Metrics.Counter(obs.MAnswerCacheHits).Inc()
	} else {
		c.cfg.Metrics.Counter(obs.MAnswerCacheMisses).Inc()
	}
}

func (c *AnswerCache) evicted(reason string) {
	c.cfg.Metrics.Counter(obs.MAnswerCacheEvictions, "reason", reason).Inc()
}

func (c *AnswerCache) gauges() {
	c.cfg.Metrics.Gauge(obs.MAnswerCacheEntries).Set(int64(c.store.Len()))
	c.cfg.Metrics.Gauge(obs.MAnswerCacheBytes).Set(c.store.Bytes())
}

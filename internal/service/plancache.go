package service

import (
	"bytes"
	"slices"
	"strings"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/lru"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
)

// QueryKey canonicalizes a condition list and algorithm into the cache key
// shared by the plan and answer caches. Conditions are rendered and sorted,
// so queries that state the same conditions in different orders share an
// entry (the optimizer re-orders conditions anyway, and a fusion answer is
// order-independent). Roster validity is NOT part of the key — entries carry
// the roster epoch they were built at and are invalidated on mismatch.
func QueryKey(conds []cond.Cond, algo core.Algorithm) string {
	// The texts are rendered once, one after another into one buffer, and
	// sorted as offsets into it, which a usual query keeps on this stack.
	size := 0
	for _, c := range conds {
		size += cond.TextLen(c)
	}
	texts := make([]byte, 0, size)
	var bounds [keyConds + 1]int
	var order [keyConds]int
	at, ord := append(bounds[:0], 0), order[:0]
	for i, c := range conds {
		texts = cond.AppendText(texts, c)
		at, ord = append(at, len(texts)), append(ord, i)
	}
	text := func(i int) []byte { return texts[at[i]:at[i+1]] }
	slices.SortFunc(ord, func(a, b int) int { return bytes.Compare(text(a), text(b)) })

	var key strings.Builder
	key.Grow(len(algo) + len("|") + size + max(len(conds)-1, 0)*len(" AND "))
	key.WriteString(string(algo))
	key.WriteByte('|')
	for k, i := range ord {
		if k > 0 {
			key.WriteString(" AND ")
		}
		key.Write(text(i))
	}
	return key.String()
}

// keyConds is the most conditions whose order QueryKey keeps on its stack.
const keyConds = 8

// PlanCache memoizes optimizer results by canonical query key, each entry
// pinned to the roster epoch it was planned at: one keying of the lru store,
// bounded by entries. A hit skips optimization. Entries whose epoch no
// longer matches the roster are evicted on lookup (reason "stale");
// capacity overflow evicts least-recently-used (reason "size"). A nil
// PlanCache is a disabled one: every Get misses, Put is a no-op and nothing
// is charged. Safe for concurrent use.
type PlanCache struct {
	metrics *obs.Registry
	mu      sync.Mutex
	store   *lru.Store[string, cachedPlan]
}

type cachedPlan struct {
	epoch uint64
	res   optimizer.Result
}

// NewPlanCache builds a plan cache holding at most max entries; max <= 0
// disables caching (the result is nil). metrics nil means the process-wide
// default registry.
func NewPlanCache(max int, metrics *obs.Registry) *PlanCache {
	if max <= 0 {
		return nil
	}
	if metrics == nil {
		metrics = obs.Default()
	}
	pc := &PlanCache{metrics: metrics}
	pc.store = lru.New(max, 0, func(string, cachedPlan) { pc.evicted("size") })
	return pc
}

// Get looks up the plan for key, valid only at the given roster epoch. A
// present entry from another epoch is evicted as stale and reported as a
// miss — a stale plan is never returned.
func (pc *PlanCache) Get(key string, epoch uint64) (optimizer.Result, bool) {
	if pc == nil {
		return optimizer.Result{}, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p, ok := pc.store.Get(key)
	if ok && p.epoch != epoch {
		pc.store.Remove(key)
		pc.evicted("stale")
		ok = false
	}
	if !ok {
		pc.metrics.Counter(obs.MPlanCacheMisses).Inc()
		return optimizer.Result{}, false
	}
	pc.metrics.Counter(obs.MPlanCacheHits).Inc()
	return p.res, true
}

// Put stores the plan for key at the given roster epoch, replacing any
// previous entry and evicting the least-recently-used entry on overflow.
func (pc *PlanCache) Put(key string, epoch uint64, res optimizer.Result) {
	if pc != nil {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		pc.store.Put(key, cachedPlan{epoch: epoch, res: res}, 0)
	}
}

// Invalidate drops the entry for key if present (reason "stale"). The engine
// calls it when executing a cached plan surfaced core.ErrStalePlan — the
// roster moved between the epoch check and execution.
func (pc *PlanCache) Invalidate(key string) {
	if pc != nil {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		if pc.store.Remove(key) {
			pc.evicted("stale")
		}
	}
}

// Len reports the number of cached plans.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.store.Len()
}

func (pc *PlanCache) evicted(reason string) {
	pc.metrics.Counter(obs.MPlanCacheEvictions, "reason", reason).Inc()
}

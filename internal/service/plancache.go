package service

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/lru"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
)

// QueryKey canonicalizes a condition list and algorithm into the cache key
// shared by the plan and answer caches: the algorithm, a bar, and each
// condition's text (cond.AppendText) behind its length in decimal and a
// colon, the texts in byte order. Sorting lets queries that state the same
// conditions in different orders share an entry (the optimizer re-orders
// conditions anyway, and a fusion answer is order-independent). The lengths
// make the key name one list of texts: a text may itself read "A AND B", so
// joined with " AND " the one-condition query `V = 'dui' AND V = 'sp'` and
// the two-condition query `V = 'dui'`, `V = 'sp'` would share a key, and one
// be served the other's answer. Roster validity is NOT part of the key —
// entries carry the roster epoch they were built at and are invalidated on
// mismatch.
func QueryKey(conds []cond.Cond, algo core.Algorithm) string {
	key, _ := queryKey(conds, algo, nil)
	return key
}

// queryKey is QueryKey, except that when spelt is the conditions' texts as a
// request sent them and each condition renders as its text, it builds no
// key and reports spelt: the request's textKey is its QueryKey.
func queryKey(conds []cond.Cond, algo core.Algorithm, spelt []string) (key string, asSpelt bool) {
	// The texts are rendered once, one after another into one buffer, and
	// sorted as offsets into it, which a usual query keeps on this stack.
	size, keySize := 0, len(algo)+len("|")
	for _, c := range conds {
		n := cond.TextLen(c)
		size, keySize = size+n, keySize+prefixed(n)
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
	if spelt != nil {
		asSpelt = true
		for i := range conds {
			asSpelt = asSpelt && string(text(i)) == spelt[i]
		}
		if asSpelt {
			return "", true
		}
	}
	slices.SortFunc(ord, func(a, b int) int { return bytes.Compare(text(a), text(b)) })

	var b strings.Builder
	b.Grow(keySize)
	b.WriteString(string(algo))
	b.WriteByte('|')
	for _, i := range ord {
		writeLen(&b, at[i+1]-at[i])
		b.Write(text(i))
	}
	return b.String(), false
}

// textKey is QueryKey of conditions as a request spelled them, the texts
// unparsed. It is QueryKey of the parsed conditions when each text is its
// condition's rendering; and since the lengths make a key name one sorted
// list of texts, a textKey equal to a QueryKey means every text is one.
func textKey(texts []string, algo core.Algorithm) string {
	var order [keyConds]int
	ord, keySize := order[:0], len(algo)+len("|")
	for i, t := range texts {
		ord, keySize = append(ord, i), keySize+prefixed(len(t))
	}
	slices.SortFunc(ord, func(a, b int) int { return strings.Compare(texts[a], texts[b]) })

	var key strings.Builder
	key.Grow(keySize)
	key.WriteString(string(algo))
	key.WriteByte('|')
	for _, i := range ord {
		writeLen(&key, len(texts[i]))
		key.WriteString(texts[i])
	}
	return key.String()
}

// prefixed is the length of a text of n bytes behind its length.
func prefixed(n int) int {
	digits := 1
	for d := n; d >= 10; d /= 10 {
		digits++
	}
	return digits + len(":") + n
}

// writeLen writes a text's length prefix.
func writeLen(key *strings.Builder, n int) {
	var digits [20]byte
	key.Write(strconv.AppendInt(digits[:0], int64(n), 10))
	key.WriteByte(':')
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

package service

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"fusionq/internal/obs"
)

// TestAnswerCacheProperty drives a seeded random schedule of puts, gets,
// epoch moves and clock advances against the answer cache and checks the
// cache's contracts after every step:
//
//   - bounded: entries never exceed MaxEntries (high-water included) and
//     bytes never exceed MaxBytes
//   - fresh: a hit never returns an expired entry, a stale-epoch entry, or
//     items other than the key's latest put
//   - accounted: hits + misses equals the number of Get calls, and the
//     internal ledger matches the fq_answer_cache_* counters
func TestAnswerCacheProperty(t *testing.T) {
	const (
		maxEntries = 8
		maxBytes   = 200
		ttl        = 10 * time.Second
		keys       = 20
		steps      = 5000
	)
	reg := obs.NewRegistry()
	clock := newFakeClock()
	c := NewAnswerCache(AnswerCacheConfig{
		TTL:        ttl,
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		Metrics:    reg,
		Now:        clock.Now,
	})

	// The model: what was last put per key, when, and at which epoch.
	type model struct {
		items  []string
		epoch  uint64
		stored time.Time
	}
	latest := map[string]model{}
	epoch := uint64(1)
	gets := int64(0)

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("q%02d", rng.Intn(keys))
		switch op := rng.Intn(10); {
		case op < 4: // put
			n := rng.Intn(6)
			items := make([]string, n)
			for i := range items {
				items[i] = fmt.Sprintf("item-%02d-%d", rng.Intn(50), step)
			}
			c.Put(key, epoch, items)
			latest[key] = model{items: items, epoch: epoch, stored: clock.Now()}
		case op < 8: // get
			gets++
			items, ok := c.Get(key, epoch)
			if ok {
				m, present := latest[key]
				if !present {
					t.Fatalf("step %d: hit on never-put key %s", step, key)
				}
				if m.epoch != epoch {
					t.Fatalf("step %d: hit on stale-epoch entry for %s (entry epoch %d, roster %d)", step, key, m.epoch, epoch)
				}
				if clock.Now().After(m.stored.Add(ttl)) {
					t.Fatalf("step %d: hit on expired entry for %s (stored %s, now %s)", step, key, m.stored, clock.Now())
				}
				if len(items) != len(m.items) {
					t.Fatalf("step %d: hit returned %d items, want %d", step, len(items), len(m.items))
				}
				for i := range items {
					if items[i] != m.items[i] {
						t.Fatalf("step %d: hit item %d = %q, want %q", step, i, items[i], m.items[i])
					}
				}
			}
		case op < 9: // advance the clock (sometimes past the TTL)
			clock.Advance(time.Duration(rng.Intn(8)) * time.Second)
		default: // roster churn
			epoch++
		}

		st := c.Stats()
		if st.Entries > maxEntries {
			t.Fatalf("step %d: entries %d exceed bound %d", step, st.Entries, maxEntries)
		}
		if st.Bytes > maxBytes && st.Entries > 1 {
			t.Fatalf("step %d: bytes %d exceed bound %d with %d entries", step, st.Bytes, maxBytes, st.Entries)
		}
	}

	st := c.Stats()
	hits, misses := reg.Counter(obs.MAnswerCacheHits).Value(), reg.Counter(obs.MAnswerCacheMisses).Value()
	if hits+misses != gets {
		t.Fatalf("fq_answer_cache_hits_total (%d) + fq_answer_cache_misses_total (%d) = %d, want the %d Get calls", hits, misses, hits+misses, gets)
	}
	if hits == 0 {
		t.Fatal("schedule produced no hits; the property test exercised nothing")
	}
	if ev := reg.Counter(obs.MAnswerCacheEvictions, "reason", "size").Value(); ev == 0 {
		t.Fatal("schedule produced no size evictions; bounds were never stressed")
	}
	if g := reg.Gauge(obs.MAnswerCacheEntries).Value(); g != int64(st.Entries) {
		t.Fatalf("fq_answer_cache_entries gauge = %d, want %d", g, st.Entries)
	}
	if g := reg.Gauge(obs.MAnswerCacheBytes).Value(); g != st.Bytes {
		t.Fatalf("fq_answer_cache_bytes gauge = %d, want %d", g, st.Bytes)
	}
}

// TestAnswerCacheExpiredNeverServed pins the TTL edge: an entry is served
// at its expiry instant and refused just past it, with a ttl eviction
// charged.
func TestAnswerCacheExpiredNeverServed(t *testing.T) {
	reg := obs.NewRegistry()
	clock := newFakeClock()
	c := NewAnswerCache(AnswerCacheConfig{TTL: time.Second, MaxEntries: 4, Metrics: reg, Now: clock.Now})
	c.Put("k", 1, []string{"x"})
	clock.Advance(time.Second)
	if _, ok := c.Get("k", 1); !ok {
		t.Fatal("entry refused at its expiry instant (TTL should be inclusive)")
	}
	clock.Advance(time.Nanosecond)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("expired entry served")
	}
	if ev := reg.Counter(obs.MAnswerCacheEvictions, "reason", "ttl").Value(); ev != 1 {
		t.Fatalf("ttl evictions = %d, want 1", ev)
	}
}

// TestAnswerCacheStaleEpochNeverServed pins the roster-churn edge.
func TestAnswerCacheStaleEpochNeverServed(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewAnswerCache(AnswerCacheConfig{TTL: time.Minute, MaxEntries: 4, Metrics: reg})
	c.Put("k", 1, []string{"x"})
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stale-epoch entry served")
	}
	if ev := reg.Counter(obs.MAnswerCacheEvictions, "reason", "stale").Value(); ev != 1 {
		t.Fatalf("stale evictions = %d, want 1", ev)
	}
	// The eviction is real: the old answer is gone even at its own epoch.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("evicted entry served after stale invalidation")
	}
}

// TestAnswerCacheDoesNotPinWhatItsItemsCameFrom: an answer's items are
// substrings of larger blocks (wire frames, source rows). The entry keeps a
// copy, so once the caller lets go, what stays on the heap is what the
// entry accounts for, not the blocks.
func TestAnswerCacheDoesNotPinWhatItsItemsCameFrom(t *testing.T) {
	const blocks, blockBytes, slack = 32, 512 << 10, 1 << 20
	c := NewAnswerCache(AnswerCacheConfig{Metrics: obs.NewRegistry()})
	inUse := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	}
	before := inUse()
	items := make([]string, blocks)
	for i := range items {
		block := strings.Repeat(fmt.Sprintf("%07d,", i), blockBytes/8)
		items[i] = block[8*i : 8*i+7]
	}
	c.Put("k", 1, items)
	items = nil
	grew := inUse() - before
	if retained := c.Stats().Bytes + 16*blocks; grew > retained+slack {
		t.Fatalf("the heap grew by %d bytes across a Put accounted at %d: the entry pins what its items were cut from (%d bytes)",
			grew, retained, blocks*blockBytes)
	}
	got, ok := c.Get("k", 1)
	if !ok || len(got) != blocks || got[3] != "0000003" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

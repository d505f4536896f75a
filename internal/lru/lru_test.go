package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelEntry is one entry of the naive model: a slice in recency order,
// most recently used first.
type modelEntry struct {
	key       string
	val, cost int
}

// TestStoreAgainstModel drives seeded random schedules of Get, Put (new
// keys, and re-Puts at a changed cost), and Remove against the store and a
// slice model, and checks after every step that the bounds hold, that the
// two hold the same entries, and that the store reported exactly the
// evictions the model made, in least-recently-used order, once each.
func TestStoreAgainstModel(t *testing.T) {
	for _, bounds := range []struct {
		entries int
		bytes   int64
	}{{8, 0}, {0, 100}, {6, 60}, {1, 0}, {0, 0}} {
		t.Run(fmt.Sprintf("entries=%d,bytes=%d", bounds.entries, bounds.bytes), func(t *testing.T) {
			var reported []modelEntry
			s := New(bounds.entries, bounds.bytes, func(k string, v int) {
				reported = append(reported, modelEntry{key: k, val: v})
			})
			var model []modelEntry // front = most recently used
			find := func(key string) int {
				return slices.IndexFunc(model, func(e modelEntry) bool { return e.key == key })
			}
			bytes := func() (n int64) {
				for _, e := range model {
					n += int64(e.cost)
				}
				return n
			}
			rng := rand.New(rand.NewSource(int64(bounds.entries)*1000 + bounds.bytes))
			evictions := 0
			for step := 0; step < 20000; step++ {
				key := fmt.Sprintf("k%02d", rng.Intn(24))
				reported = reported[:0]
				var want []modelEntry
				switch op := rng.Intn(10); {
				case op < 4:
					got, ok := s.Get(key)
					i := find(key)
					if ok != (i >= 0) || (ok && got != model[i].val) {
						t.Fatalf("step %d: Get(%s) = %d, %v; model index %d", step, key, got, ok, i)
					}
					if ok {
						e := model[i]
						model = slices.Insert(slices.Delete(model, i, i+1), 0, e)
					}
				case op < 9:
					// Mostly small costs, now and then one past the byte bound.
					e := modelEntry{key: key, val: step, cost: rng.Intn(30)}
					if rng.Intn(20) == 0 {
						e.cost = 150
					}
					s.Put(key, e.val, int64(e.cost))
					if i := find(key); i >= 0 {
						model = slices.Delete(model, i, i+1)
					}
					if bounds.bytes > 0 && int64(e.cost) > bounds.bytes {
						want = append(want, e)
						break
					}
					model = slices.Insert(model, 0, e)
					for (bounds.entries > 0 && len(model) > bounds.entries) || (bounds.bytes > 0 && bytes() > bounds.bytes) {
						want = append(want, model[len(model)-1])
						model = model[:len(model)-1]
					}
				default:
					i := find(key)
					if removed := s.Remove(key); removed != (i >= 0) {
						t.Fatalf("step %d: Remove(%s) = %v; model index %d", step, key, removed, i)
					}
					if i >= 0 {
						model = slices.Delete(model, i, i+1)
					}
				}
				if len(reported) != len(want) {
					t.Fatalf("step %d: %d evictions reported, the model made %d", step, len(reported), len(want))
				}
				for i := range want {
					if reported[i].key != want[i].key || reported[i].val != want[i].val {
						t.Fatalf("step %d: eviction %d reported %s=%d, the model's least recently used was %s=%d",
							step, i, reported[i].key, reported[i].val, want[i].key, want[i].val)
					}
				}
				evictions += len(want)
				if s.Len() != len(model) || s.Bytes() != bytes() {
					t.Fatalf("step %d: store holds %d entries, %d bytes; model %d, %d", step, s.Len(), s.Bytes(), len(model), bytes())
				}
				if bounds.entries > 0 && s.Len() > bounds.entries || bounds.bytes > 0 && s.Bytes() > bounds.bytes {
					t.Fatalf("step %d: store holds %d entries, %d bytes; bounds %d, %d", step, s.Len(), s.Bytes(), bounds.entries, bounds.bytes)
				}
			}
			// Same entries in the same recency order: evicting everything by
			// shrinking puts would be one way to see it; walking the list is
			// the direct one.
			i := 0
			for el := s.order.Front(); el != nil; el = el.Next() {
				if e := el.Value.(*entry[string, int]); e.key != model[i].key || e.val != model[i].val || e.cost != int64(model[i].cost) {
					t.Fatalf("recency position %d holds %s=%d at %d, model %+v", i, e.key, e.val, e.cost, model[i])
				}
				i++
			}
			if bounded := bounds.entries > 0 || bounds.bytes > 0; bounded != (evictions > 0) {
				t.Fatalf("%d evictions over the schedule with bounds %+v", evictions, bounds)
			}
		})
	}
}

var sink int

// BenchmarkStorePutAtBound is one Put of a new key into a store at its entry
// bound: an insertion and the eviction it forces.
func BenchmarkStorePutAtBound(b *testing.B) {
	const bound = 1024
	keys := make([]string, 4*bound)
	for i := range keys {
		keys[i] = fmt.Sprintf("q%06d", i)
	}
	s := New(bound, 0, func(string, int) { sink++ })
	for i := 0; i < bound; i++ {
		s.Put(keys[i], i, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[(bound+i)%len(keys)], i, 8)
	}
}

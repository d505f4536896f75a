package service

import (
	"fmt"
	"testing"

	"fusionq/internal/obs"
)

// BenchmarkAnswerCacheGet is a hit on a full answer cache, the lookup every
// query of the answer-hot workload makes: the store's Get, the epoch and TTL
// check, two counters.
func BenchmarkAnswerCacheGet(b *testing.B) {
	const entries = 1024
	c := NewAnswerCache(AnswerCacheConfig{MaxEntries: entries, Metrics: obs.NewRegistry()})
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("sja+|V = 'v%04d' AND D > 1990", i)
		c.Put(keys[i], 1, []string{"J55", "T21"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%entries], 1); !ok {
			b.Fatal("miss on a held key")
		}
	}
}

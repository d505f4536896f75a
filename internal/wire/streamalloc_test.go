package wire

import (
	"context"
	"runtime"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// TestStreamedUnionAllocsPerItem bounds what the streamed path allocates
// per item, both ends in this process: four loopback source servers, each
// streaming a selection of about 5 000 items in chunks that grow from 256,
// into four clients whose streams a set.MergeUnion merges and the test
// drains — remote-stream's shape. What is left is the items' bytes decoded
// on the clients (8-byte names, each source's in blocks; a union's item
// comes from 1.6 sources here) and the servers' match vectors (a byte per
// row): about 16 bytes a union item, while every batch slice is a pooled
// buffer lent and given back. With batches given, not lent, it was about 83:
// each server's whole answer, the decoded chunks and the merge's output, at
// 16 bytes an item each. The test runs without the race detector only, whose
// pools drop a quarter of what is put back.
func TestStreamedUnionAllocsPerItem(t *testing.T) {
	if raceDetector {
		t.Skip("pooled buffers are not reliably reused under -race")
	}
	sc, err := workload.Synth(workload.SynthConfig{Seed: 5, NumSources: 4, TuplesPerSource: 10000, Universe: 20000, Selectivity: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	clients := make([]*Client, len(sc.Sources))
	for j, src := range sc.Sources {
		srv, err := ServeConfig(src, "127.0.0.1:0", Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if clients[j], err = DialContext(ctx, srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clients[j].Close() })
	}
	c := cond.MustParse("A1 < 500")
	union := func() int {
		its := make([]set.Iter, len(clients))
		for j, cli := range clients {
			var err error
			if its[j], err = cli.SelectStream(ctx, c, set.DefaultBatch); err != nil {
				t.Fatal(err)
			}
		}
		m := set.MergeUnion(set.DefaultBatch, its...)
		defer m.Close()
		n := 0
		for {
			batch, err := m.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				return n
			}
			n += len(batch)
		}
	}
	union() // warms the pools and the connections' buffers
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	items := 0
	for i := 0; i < runs; i++ {
		items += union()
	}
	runtime.ReadMemStats(&after)
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / float64(items)
	t.Logf("%d items a union, %.1f bytes allocated an item", items/runs, perItem)
	if items/runs < 5000 {
		t.Fatalf("the union has %d items; the test wants thousands", items/runs)
	}
	if perItem > 24 {
		t.Errorf("the streamed union allocates %.1f bytes an item, want at most 24", perItem)
	}
}

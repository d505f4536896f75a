package wire

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// TestStreamedUnionAllocsPerItem bounds what the streamed path allocates
// per item, both ends in this process: four loopback source servers, each
// streaming a selection of about 5 000 items in chunks that grow from 256,
// into four clients whose streams a set.MergeUnion merges and the test
// drains — remote-stream's shape. What is left is the items' bytes decoded
// on the clients (8-byte names, each source's in blocks; a union's item
// comes from 1.6 sources here): about 15 bytes a union item, while every
// batch slice is a pooled buffer lent and given back, and so is each
// server's match vector (about 17 while that was made per stream). With batches given, not lent, it was about 83:
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

// answerAddrs is a source whose materialized selections it remembers by
// the address of their buffers.
type answerAddrs struct {
	source.Source
	mu    sync.Mutex
	addrs []*string
}

func (a *answerAddrs) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	out, err := a.Source.Select(ctx, c)
	if items := out.Items(); len(items) > 0 {
		a.mu.Lock()
		a.addrs = append(a.addrs, &items[0])
		a.mu.Unlock()
	}
	return out, err
}

// TestServerReleasesWrittenAnswers: a source server owns a materialized
// answer (source.Source) and gives it back to the pool once written, so the
// next answer of its size is in a buffer the pool had back. The client's
// replies come from the same pool and the test releases each, so the
// server's answers take turns in at most two buffers (the client may decode
// a reply before or after the server gave its buffer back); a server that
// kept its answers would take the client's released buffer each time, a new
// one a request. Under -race the pool drops some of what is put back, so
// the test runs without it only.
func TestServerReleasesWrittenAnswers(t *testing.T) {
	if raceDetector {
		t.Skip("pooled buffers are not reliably reused under -race")
	}
	sc, err := workload.Synth(workload.SynthConfig{Seed: 5, NumSources: 1, TuplesPerSource: 2000, Universe: 4000, Selectivity: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	src := &answerAddrs{Source: sc.Sources[0]}
	srv, err := ServeConfig(src, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	cli, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 8; i++ {
		out, err := cli.Select(ctx, sc.Conds[0])
		if err != nil {
			t.Fatal(err)
		}
		set.Release(out)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	bufs := map[*string]bool{}
	for _, addr := range src.addrs {
		bufs[addr] = true
	}
	if len(src.addrs) != 8 || len(bufs) > 2 {
		t.Fatalf("%d answers in %d buffers; want 8 in at most 2", len(src.addrs), len(bufs))
	}
}

// TestSemijoinExchangeAllocs bounds what one semijoin exchange allocates
// per item sent, both ends in this process: a warm sjq of 2 048 items
// through a loopback client and server, the probe built in a pooled buffer
// and given back after the exchange, the reply given back once read, as the
// pipeline does. What is left is the items' bytes decoded on each end (the
// request's 8-byte names on the server, the matches on the client, in
// strings of up to 4 KiB) and each frame's line: about 14 bytes an item,
// where the server's decoded set and the client's reply, each an array of
// its own, made it about 39. The test runs without the race detector only,
// whose pools drop a quarter of what is put back.
func TestSemijoinExchangeAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("pooled buffers are not reliably reused under -race")
	}
	sc, err := workload.Synth(workload.SynthConfig{Seed: 5, NumSources: 1, TuplesPerSource: 10000, Universe: 20000, Selectivity: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	cli, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	all, err := sc.Sources[0].Select(ctx, cond.True{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048
	if all.Len() < n {
		t.Fatalf("the source has %d items; the test wants %d", all.Len(), n)
	}
	items := all.Items()[:n]
	c := cond.MustParse("A1 < 500")
	matched := 0
	exchange := func() {
		probe := set.FromSorted(append(set.Alloc(n), items...))
		out, err := cli.Semijoin(ctx, c, probe)
		if err != nil {
			t.Fatal(err)
		}
		set.Release(probe)
		matched = out.Len()
		set.Release(out)
	}
	exchange() // warms the pools and the connection's buffers
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*n)
	t.Logf("%d of %d items match, %.1f bytes allocated an item sent", matched, n, perItem)
	if matched < n/10 || matched > n-n/10 {
		t.Fatalf("%d of %d items match; the test wants a reply of a good part of the probe", matched, n)
	}
	if perItem > 20 {
		t.Errorf("the semijoin exchange allocates %.1f bytes an item, want at most 20", perItem)
	}
}

package wire

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// startSynthServer serves one synthetic source big enough to chunk and
// returns a connected client plus the served source for reference answers.
func startSynthServer(t *testing.T) (*Client, source.Source) {
	t.Helper()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed:            11,
		NumSources:      1,
		TuplesPerSource: 900,
		Universe:        700,
		Selectivity:     []float64{0.6},
	})
	if err != nil {
		t.Fatalf("Synth: %v", err)
	}
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, sc.Sources[0]
}

func TestSelectStreamMatchesSelect(t *testing.T) {
	cli, src := startSynthServer(t)
	ctx := context.Background()
	c := cond.MustParse("A1 < 600")

	want, err := src.Select(ctx, c)
	if err != nil {
		t.Fatalf("reference Select: %v", err)
	}
	if want.Len() < 100 {
		t.Fatalf("reference answer too small to chunk meaningfully: %d items", want.Len())
	}

	if !cli.meta.Chunking {
		t.Fatalf("server did not advertise chunking")
	}
	it, err := cli.SelectStream(ctx, c, 64)
	if err != nil {
		t.Fatalf("SelectStream: %v", err)
	}
	var items []string
	var sizes []int
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if batch == nil {
			break
		}
		sizes = append(sizes, len(batch))
		items = append(items, batch...)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := set.FromSorted(items); !got.Equal(want) {
		t.Fatalf("streamed %d items, want %d; sets differ", got.Len(), want.Len())
	}
	if wantSizes := scheduleSizes(want.Len(), 64); fmt.Sprint(sizes) != fmt.Sprint(wantSizes) {
		t.Fatalf("batches of %v items, want the schedule's %v", sizes, wantSizes)
	}
}

// scheduleSizes is what set.Schedule cuts n items into from first.
func scheduleSizes(n, first int) []int {
	var out []int
	for s := set.NewSchedule(first); n > 0; {
		size := min(s.Next(), n)
		out = append(out, size)
		n -= size
	}
	return out
}

func TestSelectStreamEmptyResult(t *testing.T) {
	cli, _ := startSynthServer(t)
	ctx := context.Background()
	it, err := cli.SelectStream(ctx, cond.MustParse("A1 < 0"), 32)
	if err != nil {
		t.Fatalf("SelectStream: %v", err)
	}
	batch, err := it.Next(ctx)
	if err != nil || batch != nil {
		t.Fatalf("Next = (%v, %v), want exhausted", batch, err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The connection must be back in sync for ordinary operations.
	out, err := cli.Select(ctx, cond.MustParse("A1 < 1000"))
	if err != nil {
		t.Fatalf("Select after stream: %v", err)
	}
	if out.IsEmpty() {
		t.Fatalf("Select after stream returned nothing")
	}
}

func TestSelectStreamEarlyCloseResyncs(t *testing.T) {
	cli, src := startSynthServer(t)
	ctx := context.Background()
	c := cond.MustParse("A1 < 600")
	it, err := cli.SelectStream(ctx, c, 16)
	if err != nil {
		t.Fatalf("SelectStream: %v", err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("Next: %v", err)
	}
	// Abandon mid-stream; Close must drain the outstanding chunks.
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want, err := src.Select(ctx, c)
	if err != nil {
		t.Fatalf("reference Select: %v", err)
	}
	got, err := cli.Select(ctx, c)
	if err != nil {
		t.Fatalf("Select after abandoned stream: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("post-abandon Select disagrees: got %d items, want %d", got.Len(), want.Len())
	}
}

func TestSelectStreamFallbackWithoutChunking(t *testing.T) {
	cli, src := startSynthServer(t)
	ctx := context.Background()
	// Simulate a pre-extension v1 server: no chunking advertised.
	cli.meta.Chunking = false
	c := cond.MustParse("A1 < 600")
	it, err := cli.SelectStream(ctx, c, 64)
	if err != nil {
		t.Fatalf("SelectStream fallback: %v", err)
	}
	got, err := set.Collect(ctx, it)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	want, err := src.Select(ctx, c)
	if err != nil {
		t.Fatalf("reference Select: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("fallback stream disagrees with Select")
	}
}

func TestChunkResponsesFraming(t *testing.T) {
	items := make([]string, 10)
	for i := range items {
		items[i] = fmt.Sprintf("ID%06d", i)
	}
	resp := Response{QueryID: "q1", Items: items}
	chunks := chunkResponses(Request{Chunk: 4}, resp)
	// The first chunk is the size asked for, the next double it.
	if len(chunks) != 2 || len(chunks[0].Items) != 4 || len(chunks[1].Items) != 6 {
		t.Fatalf("got %d chunks, want 2 of 4 and 6 items", len(chunks))
	}
	for i, ch := range chunks {
		if ch.QueryID != "q1" {
			t.Fatalf("chunk %d lost the query ID", i)
		}
		wantMore := i < len(chunks)-1
		if ch.More != wantMore {
			t.Fatalf("chunk %d More = %v, want %v", i, ch.More, wantMore)
		}
	}
	// Unchunked, error and small responses pass through untouched, and so
	// does any answer when the peer asks for the largest chunk there is.
	if got := chunkResponses(Request{}, resp); len(got) != 1 || len(got[0].Items) != len(items) || got[0].More {
		t.Fatalf("unchunked request was split")
	}
	if got := chunkResponses(Request{Chunk: 4}, Response{Error: "boom", Items: items}); len(got) != 1 {
		t.Fatalf("error response was split")
	}
	if got := chunkResponses(Request{Chunk: 64}, resp); len(got) != 1 {
		t.Fatalf("small response was split")
	}
	if got := chunkResponses(Request{Chunk: math.MaxInt}, resp); len(got) != 1 || len(got[0].Items) != len(items) {
		t.Fatalf("chunk math.MaxInt split the response")
	}
}

// TestChunkResponsesFollowTheSchedule: the chunker a source server and fqd
// share cuts every answer in [0, 20 000] items into set.Schedule's sizes, as
// many as set.Batches counts, in a slice of exactly that many.
func TestChunkResponsesFollowTheSchedule(t *testing.T) {
	all := make([]string, 20000)
	for i := range all {
		all[i] = fmt.Sprintf("ID%06d", i)
	}
	for _, first := range []int{1, 4, 256} {
		for n := 0; n <= len(all); n += 1 + n/16 {
			chunks := chunkResponses(Request{Chunk: first}, Response{Items: all[:n]})
			var sizes []int
			for _, ch := range chunks {
				sizes = append(sizes, len(ch.Items))
			}
			want := scheduleSizes(n, first)
			if n == 0 {
				want = []int{0} // an empty answer is still one response
			}
			if fmt.Sprint(sizes) != fmt.Sprint(want) {
				t.Fatalf("%d items from %d: chunks of %v, want %v", n, first, sizes, want)
			}
			if n > first && (len(chunks) != int(set.Batches(float64(n), first)) || cap(chunks) != len(chunks)) {
				t.Fatalf("%d items from %d: %d chunks in a slice of %d, set.Batches %v",
					n, first, len(chunks), cap(chunks), set.Batches(float64(n), first))
			}
		}
	}
}

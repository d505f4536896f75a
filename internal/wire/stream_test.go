package wire

import (
	"context"
	"fmt"
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
	batches := 0
	var items []string
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if batch == nil {
			break
		}
		if len(batch) > 64 {
			t.Fatalf("batch of %d items exceeds requested chunk size", len(batch))
		}
		batches++
		items = append(items, batch...)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := set.FromSorted(items); !got.Equal(want) {
		t.Fatalf("streamed %d items, want %d; sets differ", got.Len(), want.Len())
	}
	if wantBatches := (want.Len() + 63) / 64; batches != wantBatches {
		t.Fatalf("got %d batches, want %d", batches, wantBatches)
	}
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
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	total := 0
	for i, ch := range chunks {
		if ch.QueryID != "q1" {
			t.Fatalf("chunk %d lost the query ID", i)
		}
		wantMore := i < len(chunks)-1
		if ch.More != wantMore {
			t.Fatalf("chunk %d More = %v, want %v", i, ch.More, wantMore)
		}
		total += len(ch.Items)
	}
	if total != len(items) {
		t.Fatalf("chunks carry %d items, want %d", total, len(items))
	}
	// Unchunked, error and small responses pass through untouched.
	if got := chunkResponses(Request{}, resp); len(got) != 1 || len(got[0].Items) != len(items) || got[0].More {
		t.Fatalf("unchunked request was split")
	}
	if got := chunkResponses(Request{Chunk: 4}, Response{Error: "boom", Items: items}); len(got) != 1 {
		t.Fatalf("error response was split")
	}
	if got := chunkResponses(Request{Chunk: 64}, resp); len(got) != 1 {
		t.Fatalf("small response was split")
	}
}

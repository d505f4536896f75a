package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"time"

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

// captureConn is a connection that keeps what is written to it.
type captureConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// written returns the bytes the listener writes for resp, the answer to
// req, and the frames they decode to.
func written(t *testing.T, req Request, resp Response) ([]byte, []Response) {
	t.Helper()
	l := &Listener{baseCtx: context.Background()}
	var conn captureConn
	var w frameWriter
	if !l.write(&conn, req, resp, time.Now(), &w) {
		t.Fatal("the listener failed to write the response")
	}
	raw := slices.Clone(conn.out.Bytes())
	in := frameReader{br: bufio.NewReader(&conn.out)}
	var frames []Response
	for {
		budget := MaxFrameBytes
		var f Response
		if err := in.read(&f, &budget); err == io.EOF {
			return raw, frames
		} else if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
}

// failingIter yields its batches, then fails.
type failingIter struct{ batches [][]string }

func (it *failingIter) Next(context.Context) ([]string, error) {
	if len(it.batches) == 0 {
		return nil, errors.New("scan failed")
	}
	b := it.batches[0]
	it.batches = it.batches[1:]
	return b, nil
}

func (it *failingIter) Close() error { return nil }

func TestChunkResponsesFraming(t *testing.T) {
	items := make([]string, 10)
	for i := range items {
		items[i] = fmt.Sprintf("ID%06d", i)
	}
	resp := Response{QueryID: "q1", Items: items}
	_, chunks := written(t, Request{Chunk: 4}, resp)
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
	if _, got := written(t, Request{}, resp); len(got) != 1 || len(got[0].Items) != len(items) || got[0].More {
		t.Fatalf("unchunked request was split")
	}
	if _, got := written(t, Request{Chunk: 4}, Response{Error: "boom", Items: items}); len(got) != 1 {
		t.Fatalf("error response was split")
	}
	if _, got := written(t, Request{Chunk: 64}, resp); len(got) != 1 {
		t.Fatalf("small response was split")
	}
	if _, got := written(t, Request{Chunk: math.MaxInt}, resp); len(got) != 1 || len(got[0].Items) != len(items) {
		t.Fatalf("chunk math.MaxInt split the response")
	}
	// A stream goes out batch by batch, the fragment riding the last; one
	// that fails after a chunk went out ends with an error frame.
	frag := &Fragment{Source: "R", Op: OpSelect}
	_, got := written(t, Request{Chunk: 4}, Response{QueryID: "q2", Stream: set.IterOf(set.FromSorted(items), 4), Frag: frag})
	if len(got) != 2 || got[0].Frag != nil || got[1].Frag == nil || got[1].Frag.Source != "R" || !got[0].More || got[1].More {
		t.Fatalf("a stream of 10 items from 4 went out as %+v", got)
	}
	_, got = written(t, Request{Chunk: 4}, Response{QueryID: "q3", Stream: &failingIter{batches: [][]string{items[:4], items[4:]}}, Frag: frag})
	if len(got) != 2 || len(got[0].Items) != 4 || !got[0].More || got[1].Error != "scan failed" || got[1].Frag != nil || got[1].QueryID != "q3" {
		t.Fatalf("a failing stream went out as %+v", got)
	}
}

// TestChunkResponsesFollowTheSchedule: the writer a source server and fqd
// share cuts every answer in [0, 20 000] items into set.Schedule's sizes, as
// many as set.Batches counts, and an answer written from a stream is the
// same bytes as one written from its items.
func TestChunkResponsesFollowTheSchedule(t *testing.T) {
	all := make([]string, 20000)
	for i := range all {
		all[i] = fmt.Sprintf("ID%06d", i)
	}
	for _, first := range []int{1, 4, 256} {
		for n := 0; n <= len(all); n += 1 + n/16 {
			req := Request{Chunk: first}
			raw, chunks := written(t, req, Response{QueryID: "q", Items: all[:n]})
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
			if n > first && len(chunks) != int(set.Batches(float64(n), first)) {
				t.Fatalf("%d items from %d: %d chunks, set.Batches %v", n, first, len(chunks), set.Batches(float64(n), first))
			}
			streamed, _ := written(t, req, Response{QueryID: "q", Stream: set.IterOf(set.FromSorted(all[:n]), first)})
			if !bytes.Equal(raw, streamed) {
				t.Fatalf("%d items from %d: the stream is written as other bytes than the items", n, first)
			}
		}
	}
}

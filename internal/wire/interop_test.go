package wire_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/service"
	"fusionq/internal/set"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// The interop matrix of the optional extensions, the item block above all:
// a client of this build against a server from before them, and a client
// from before them against the servers of this build, for both kinds of
// peer. A peer from before them is encoding/json on a line-oriented
// connection and nothing else, so every line it reads must be one
// json.Unmarshal takes, with no member it never heard of, and no byte of a
// block may ever reach it.

// dui is the answer to V = 'dui' on the first Figure 1 relation, alone and
// semijoined with J55 and T21.
var (
	dui     = []string{"J55", "T80"}
	duiSemi = []string{"J55"}
)

// extensionKeys are the members a peer from before the extensions never
// heard of; itemCount and blockBytes would mean a block follows the line.
var extensionKeys = []string{"frag", "itemBlock", "itemCount", "blockBytes"}

// checkV1Line fails unless line is one json.Unmarshal takes whole and
// carries none of the members of extensions the peer did not advertise.
func checkV1Line(t *testing.T, line []byte, forbidden ...string) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("a v1 peer read %q, which encoding/json refuses: %v", line, err)
	}
	for _, k := range forbidden {
		if _, ok := m[k]; ok {
			t.Fatalf("a v1 peer read %s, which carries %q", line, k)
		}
	}
	return m
}

// v1Peer is a server from before the extensions it does not advertise in
// meta: encoding/json reads each request line and writes each response.
// Every line it read is kept for the test to check.
type v1Peer struct {
	ln    net.Listener
	mu    sync.Mutex
	lines [][]byte
}

// startV1Peer serves meta and answers every other request with the frames
// answer returns for it.
func startV1Peer(t *testing.T, meta wire.Meta, answer func(wire.Request) []wire.Response) *v1Peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	p := &v1Peer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, enc := bufio.NewReader(conn), json.NewEncoder(conn)
				for {
					line, err := r.ReadBytes('\n')
					if err != nil {
						return
					}
					p.mu.Lock()
					p.lines = append(p.lines, line)
					p.mu.Unlock()
					var req wire.Request
					if json.Unmarshal(line, &req) != nil {
						return // the test fails on the line
					}
					frames := []wire.Response{{Meta: &meta}}
					if req.Op != wire.OpMeta {
						frames = answer(req)
					}
					for _, f := range frames {
						f.QueryID = req.QueryID
						if enc.Encode(f) != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return p
}

// check holds every line the peer read to checkV1Line and returns them.
func (p *v1Peer) check(t *testing.T) [][]byte {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.lines {
		checkV1Line(t, line, extensionKeys...)
	}
	return p.lines
}

// fixedChunks is items as a chunking peer from before chunks grew sends
// them: in chunks of exactly n items, or whole when n is not positive.
func fixedChunks(items []string, n int, last wire.Response) []wire.Response {
	var frames []wire.Response
	for n > 0 && len(items) > n {
		frames = append(frames, wire.Response{Items: items[:n], More: true})
		items = items[n:]
	}
	last.Items = items
	return append(frames, last)
}

// TestV1ServerInterop: the clients of this build against servers that
// predate the item block and the fragments, each advertising chunking. A
// source server answers a selection, a semijoin whose Y the client must
// send as a JSON array, and a chunked stream; a mediator service answers
// a query uncached, then from its answer cache, then chunked. The client
// asks for neither blocks nor fragments, reads every answer, and a traced
// exchange is a bare wire span with no server child grafted.
func TestV1ServerInterop(t *testing.T) {
	ctx := context.Background()
	schema := workload.DMV().Sources[0].Schema()
	base := wire.Meta{Version: 1, Name: "R1", Merge: schema.Merge(), Columns: wire.EncodeSchema(schema), NativeSemijoin: true, Chunking: true, Tuples: 3, Distinct: 3, Bytes: 64}

	src := startV1Peer(t, base, func(req wire.Request) []wire.Response {
		switch req.Op {
		case wire.OpSelect:
			return fixedChunks(dui, req.Chunk, wire.Response{})
		case wire.OpSemi:
			var out []string
			for _, it := range req.Items {
				if slices.Contains(dui, it) {
					out = append(out, it)
				}
			}
			return []wire.Response{{Items: out}}
		}
		return []wire.Response{{Error: "unsupported op " + req.Op}}
	})
	cli, err := wire.DialContext(ctx, src.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	tr := obs.NewTrace()
	traced := obs.With(ctx, &obs.Obs{QueryID: "q-v1", Trace: tr})
	c := cond.MustParse("V = 'dui'")
	if got, err := cli.Select(traced, c); err != nil || !slices.Equal(got.Items(), dui) {
		t.Fatalf("Select = %v, %v", got, err)
	}
	if spans := tr.Export(); len(spans) != 1 || spans[0].Kind != obs.KindWire || !spans[0].Finished {
		t.Fatalf("v1 exchange spans = %+v, want one finished wire span and nothing grafted", spans)
	}
	if got, err := cli.Semijoin(ctx, c, set.New("T21", "J55")); err != nil || !slices.Equal(got.Items(), duiSemi) {
		t.Fatalf("Semijoin = %v, %v", got, err)
	}
	it, err := cli.SelectStream(ctx, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := set.Collect(ctx, it); err != nil || !slices.Equal(got.Items(), dui) {
		t.Fatalf("SelectStream = %v, %v", got, err)
	}
	lines := src.check(t)
	if sjq := lines[2]; !bytes.Contains(sjq, []byte(`"items":["J55","T21"]`)) {
		t.Fatalf("the semijoin went out as %s, want its Y as a JSON array", sjq)
	}

	answers := 0
	fqd := base
	fqd.Name, fqd.Queries = "fqd", true
	svc := startV1Peer(t, fqd, func(req wire.Request) []wire.Response {
		if req.Op != wire.OpQuery {
			return []wire.Response{{Error: "unsupported op " + req.Op}}
		}
		answers++
		return fixedChunks(dui, req.Chunk, wire.Response{AnswerCached: answers > 1})
	})
	sc, err := service.DialService(ctx, svc.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i, chunk := range []int{0, 0, 1} {
		sc.Chunk = chunk
		r, err := sc.Query(ctx, "t", []string{"V = 'dui'"}, false)
		if err != nil || !slices.Equal(r.Items, dui) || r.AnswerCached != (i > 0) {
			t.Fatalf("query %d (chunk %d) = %+v, %v", i, chunk, r, err)
		}
	}
	svc.check(t)
}

// v1Exchange sends one raw request line on conn as a client from before
// the extensions does and reads the answer's lines, up to the one without
// more. Every line must be one json.Unmarshal takes, with no member of an
// extension the request did not ask for, and nothing may follow the last:
// no block byte reaches the client.
func v1Exchange(t *testing.T, conn net.Conn, r *bufio.Reader, req string, forbidden ...string) []wire.Response {
	t.Helper()
	if _, err := conn.Write([]byte(req + "\n")); err != nil {
		t.Fatal(err)
	}
	var frames []wire.Response
	for more := true; more; {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: after %d lines: %v", req, len(frames), err)
		}
		checkV1Line(t, line, forbidden...)
		var resp wire.Response
		if err := json.Unmarshal(line, &resp); err != nil || resp.Error != "" {
			t.Fatalf("%s: %s: %v", req, line, err)
		}
		frames, more = append(frames, resp), resp.More
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if b, err := r.ReadByte(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: after the answer the client read %q, %v, want nothing", req, b, err)
	}
	return frames
}

// items is the answer the frames of one response reassemble to.
func items(frames []wire.Response) []string {
	var out []string
	for _, f := range frames {
		out = append(out, f.Items...)
	}
	return out
}

// TestV1ClientInterop: a client from before the extensions against the
// servers of this build, both kinds. Its requests carry no qid, chunk, frag
// or itemBlock unless the case asks for chunks; every answer comes as JSON
// lines only: a selection, a semijoin whose Y it sends as a JSON array, a
// chunked selection, and a mediator service's answer uncached, from its
// answer cache (whose entry is a block), and chunked from it.
func TestV1ClientInterop(t *testing.T) {
	quiet := wire.Config{Logf: func(string, ...interface{}) {}}
	unchunked := append([]string{"more"}, extensionKeys...)
	for _, p := range peers {
		t.Run(p.name, func(t *testing.T) {
			srv := p.serve(t, newGate(workload.DMV().Sources[0]), quiet)
			defer srv.Close()
			conn := rawConn(t, srv.Addr(), false)
			r := bufio.NewReader(conn)
			meta := v1Exchange(t, conn, r, `{"op":"meta"}`, "frag", "more", "itemCount", "blockBytes")
			if m := meta[0].Meta; m == nil || !m.ItemBlock {
				t.Fatalf("meta = %+v, want the server to advertise the item block", m)
			}
			type exchange struct {
				req       string
				want      []string
				chunked   bool
				forbidden []string
			}
			var cases []exchange
			if p.name == "source" {
				cases = []exchange{
					{`{"op":"sq","cond":"V = 'dui'"}`, dui, false, unchunked},
					{`{"op":"sjq","cond":"V = 'dui'","items":["J55","T21"]}`, duiSemi, false, unchunked},
					{`{"op":"sq","cond":"V = 'dui'","chunk":1}`, dui, true, extensionKeys},
				}
			} else {
				q := `{"op":"query","tenant":"t","conds":["V = 'dui'"]`
				cases = []exchange{
					{q + `}`, dui, false, unchunked},
					{q + `}`, dui, false, unchunked},
					{q + `,"chunk":1}`, dui, true, extensionKeys},
				}
			}
			for i, tc := range cases {
				frames := v1Exchange(t, conn, r, tc.req, tc.forbidden...)
				if got := items(frames); !slices.Equal(got, tc.want) || (len(frames) > 1) != tc.chunked {
					t.Fatalf("%s: %d frames of %q, want %q", tc.req, len(frames), got, tc.want)
				}
				if cached := frames[len(frames)-1].AnswerCached; p.name == "service" && cached != (i > 0) {
					t.Fatalf("%s: answer %d answerCached %v", tc.req, i, cached)
				}
			}
		})
	}
}

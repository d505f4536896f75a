package wire

import (
	"context"
	"encoding/json"
	"net"
	"strconv"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/workload"
)

// fakeV1Server speaks the wire protocol as a pre-fragment build would: it
// answers meta without the Fragments (or Chunking) advertisement and echoes
// no frag field, recording each request it saw. Interop with such servers is
// the compatibility contract of the extension.
type fakeV1Server struct {
	ln   net.Listener
	reqs chan Request
}

func startFakeV1Server(t *testing.T) *fakeV1Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeV1Server{ln: ln, reqs: make(chan Request, 16)}
	sc := workload.DMV()
	meta := &Meta{
		Version: 1,
		Name:    "R1",
		Merge:   sc.Sources[0].Schema().Merge(),
		Columns: EncodeSchema(sc.Sources[0].Schema()),
		Tuples:  3, Distinct: 3, Bytes: 64,
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := json.NewDecoder(conn)
				enc := json.NewEncoder(conn)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return
					}
					f.reqs <- req
					resp := Response{QueryID: req.QueryID}
					switch req.Op {
					case OpMeta:
						resp.Meta = meta
					case OpSelect:
						resp.Items = []string{"x7", "k2"}
					default:
						resp.Error = "unsupported op " + req.Op
					}
					if err := enc.Encode(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return f
}

// TestV1ServerInterop dials a server that predates the fragment extension:
// the client must not ask for fragments, the exchange must succeed, and the
// trace must hold a bare wire span with no grafted server child — the
// rendered split then degrades to wait/wire.
func TestV1ServerInterop(t *testing.T) {
	f := startFakeV1Server(t)
	cli, err := DialContext(context.Background(), f.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.meta.Fragments {
		t.Fatal("client believes a v1 server advertises fragments")
	}
	<-f.reqs // the dial's meta request

	tr := obs.NewTrace()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: "q-v1", Trace: tr})
	got, err := cli.Select(ctx, cond.MustParse("V = 'dui'"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("answer = %v", got)
	}
	req := <-f.reqs
	if req.Frag {
		t.Fatal("client set frag against a server that never advertised the extension")
	}
	spans := tr.Export()
	if len(spans) != 1 || spans[0].Kind != obs.KindWire || !spans[0].Finished {
		t.Fatalf("v1 exchange spans = %+v, want one finished wire span and nothing grafted", spans)
	}
}

// TestV1ClientInterop runs a pre-fragment client against the current server:
// a raw request without the frag field must get a response without one (and
// without more/chunking artifacts), byte-compatible with what a v1 client
// expects to decode.
func TestV1ClientInterop(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)

	// A v1 client's requests have no qid, chunk or frag fields at all.
	for _, raw := range []string{
		`{"op":"meta"}`,
		`{"op":"sq","cond":"V = 'dui'"}`,
	} {
		if err := enc.Encode(json.RawMessage(raw)); err != nil {
			t.Fatal(err)
		}
		var resp map[string]json.RawMessage
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if _, ok := resp["error"]; ok {
			t.Fatalf("request %s errored: %s", raw, resp["error"])
		}
		for _, field := range []string{"frag", "more"} {
			if _, ok := resp[field]; ok {
				t.Fatalf("response to %s carries %q, which a v1 client never asked for: %v", raw, field, resp)
			}
		}
	}
}

// TestFragmentContents checks what the server actually reports: the fragment
// names the source and op, its stage timings sum within the total, and its
// byte counts match the semantic payload sizes of the exchange.
func TestFragmentContents(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.meta.Fragments {
		t.Fatal("current server must advertise the fragment extension")
	}

	condText := cond.MustParse("V = 'dui'").String()
	tr := obs.NewTrace()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: "q-frag", Trace: tr})
	resp, err := cli.Do(ctx, Request{Op: OpSelect, Cond: condText})
	if err != nil {
		t.Fatal(err)
	}

	f := resp.Frag
	if f == nil {
		t.Fatal("no fragment on the response")
	}
	if f.Source != "R1" || f.Op != OpSelect {
		t.Fatalf("fragment identity = %s/%s", f.Source, f.Op)
	}
	if f.QueueUS < 0 || f.ParseUS < 0 || f.ScanUS < 0 || f.ChunkUS < 0 {
		t.Fatalf("negative stage timing: %+v", f)
	}
	if sum := f.QueueUS + f.ParseUS + f.ScanUS + f.ChunkUS; sum > f.TotalUS+1000 {
		t.Fatalf("stage sum %dus far exceeds total %dus", sum, f.TotalUS)
	}
	if f.BytesIn != len(condText) {
		t.Fatalf("fragment bytesIn = %d, want the condition's %d", f.BytesIn, len(condText))
	}
	wantOut := 0
	for _, item := range resp.Items {
		wantOut += len(item)
	}
	if f.BytesOut != wantOut {
		t.Fatalf("fragment bytesOut = %d, want the items' %d", f.BytesOut, wantOut)
	}

	// The grafted span carries the breakdown as attributes.
	spans := tr.Export()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	frag := spans[1]
	if frag.Kind != obs.KindServer || frag.Parent != spans[0].ID {
		t.Fatalf("grafted span = %+v", frag)
	}
	for _, key := range []string{"queueUs", "parseUs", "scanUs", "chunkUs", "queueDepth", "bytesIn", "bytesOut"} {
		if _, err := strconv.Atoi(frag.Attrs[key]); err != nil {
			t.Fatalf("grafted span attr %q = %q: %v", key, frag.Attrs[key], err)
		}
	}
	if frag.Attrs["op"] != OpSelect || frag.Attrs["source"] != "R1" {
		t.Fatalf("grafted span attrs = %+v", frag.Attrs)
	}
}

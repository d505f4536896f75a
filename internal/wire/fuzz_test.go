package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"fusionq/internal/workload"
)

// The seeds are the request and response lines of the V1 interop tests
// (frag_test.go), plus the chunk/frag/query/stats extensions and plain
// damage.
var (
	requestSeeds = []string{
		`{"op":"meta"}` + "\n",
		`{"op":"sq","cond":"V = 'dui'"}` + "\n",
		`{"op":"sq","qid":"q-1","cond":"V = 'dui'","chunk":1,"frag":true}` + "\n",
		// A peer's chunk size drives the chunk schedule, which must
		// saturate at the largest and pass a negative one through unchunked.
		`{"op":"sq","cond":"V = 'dui'","chunk":9223372036854775807}` + "\n",
		`{"op":"sq","cond":"V = 'dui'","chunk":-1}` + "\n",
		`{"op":"sjq","cond":"V = 'sp'","items":["J55","T21"]}` + "\n" + `{"op":"lq"}` + "\n",
		`{"op":"query","tenant":"t","conds":["V = 'dui'"]}` + "\n",
		`{"op":"stats","qid":"q-2","frag":true}` + "\n",
		`{"op":"sq","cond":"V = `,
		`{"op":7}` + "\n",
		"\x00\xff{[\n",
	}
	responseSeeds = []string{
		`{"items":["x7","k2"]}` + "\n",
		`{"qid":"q-v1","items":["k2","x7"]}` + "\n",
		`{"meta":{"version":1,"name":"R1","merge":"L","columns":[{"name":"L","kind":"string"}],"tuples":3,"distinct":3,"bytes":64}}` + "\n",
		`{"error":"unsupported op lq"}` + "\n",
		`{"meta":{"version":1,"name":"R1","merge":"L","columns":[{"name":"L","kind":"string"}],"stats":true}}` + "\n",
		`{"stats":{"tuples":3,"items":3,"bytes":64,"numeric":{"D":{"low":[1993,1994],"high":[1993,1994],"values":{"mcv":{"1993":2},"otherCount":1,"otherDistinct":1}},"X":null},"strings":{"V":{"mcv":{"dui":2}}}}}` + "\n",
		`{"items":["a"],"more":true}` + "\n" + `{"items":["b"],"frag":{"source":"R1","op":"sq","totalUs":5}}` + "\n",
		`{"items":["b"],"more":true}` + "\n" + `{"items":["a"]}` + "\n",
		`{"items":["a"],"more":true}` + "\n",
		`{"items":[`,
		`{"items":7}` + "\n",
		"\x00\xff{[\n",
	}
)

// FuzzServerFrame feeds arbitrary bytes to the serve loop over a net.Pipe.
// Whatever arrives, the loop must not panic, must answer only with
// well-formed response lines, and must hang up by itself — at the latest
// when the idle timeout reaps the connection the fuzzer leaves open.
func FuzzServerFrame(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	srv, err := ServeConfig(workload.DMV().Sources[0], "127.0.0.1:0", Config{
		IdleTimeout: 20 * time.Millisecond,
		Logf:        func(string, ...interface{}) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		defer client.Close()
		srv.wg.Add(1)
		go srv.serveConn(server)
		if len(data) > 0 {
			go func() { _, _ = client.Write(data) }() // fails once the loop hangs up
		}

		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		out, err := io.ReadAll(client)
		if err != nil {
			t.Fatalf("the serve loop did not hang up: %v", err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var resp Response
			if err := dec.Decode(&resp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("malformed response in %q: %v", out, err)
			}
		}
	})
}

// FuzzClientFrame answers a client's request with arbitrary bytes and then
// hangs up. Do and Stream must not panic or hang, and must report a peer
// that never completed its answer.
func FuzzClientFrame(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })
	replies := make(chan []byte)
	f.Cleanup(func() { close(replies) })
	go func() {
		for reply := range replies {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
				_, _ = conn.Write(reply)
			}
			conn.Close()
		}
	}()
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// complete: the bytes hold a final frame, so an exchange can end well.
		complete := false
		for dec := json.NewDecoder(bytes.NewReader(data)); ; {
			var resp Response
			if dec.Decode(&resp) != nil {
				break
			}
			if !resp.More {
				complete = true
				break
			}
		}
		newConn := func() *Conn {
			replies <- data
			return &Conn{addr: ln.Addr().String(), sem: make(chan struct{}, 1)}
		}

		c := newConn()
		if _, err := c.Do(ctx, Request{Op: OpSelect, Cond: "V = 'dui'"}); err == nil && !complete {
			t.Fatal("Do succeeded on an answer without a final frame")
		}
		c.Close()

		c = newConn()
		defer c.Close()
		it, err := c.Stream(ctx, Request{Op: OpSelect, Cond: "V = 'dui'", Chunk: 1})
		if err != nil {
			t.Fatalf("Stream failed to open against a listening peer: %v", err)
		}
		defer it.Close()
		for {
			batch, err := it.Next(ctx)
			if err == nil && batch == nil && !complete {
				t.Fatal("Stream ended cleanly on an answer without a final frame")
			}
			if err != nil || batch == nil {
				return
			}
		}
	})
}

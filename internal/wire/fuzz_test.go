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
// (interop_test.go), plus the chunk/frag/query/stats extensions, frames of
// the item block whole and damaged (a block cut short, counts that
// disagree with it, a length that runs past it, an empty block), and plain
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
		`{"op":"sjq","cond":"V = 'dui'","itemCount":2,"blockBytes":8,"itemBlock":true}` + "\n\x03\x03J55T21" +
			`{"op":"sq","cond":"V = 'dui'","chunk":1,"itemBlock":true}` + "\n",
		`{"op":"sjq","cond":"V = 'dui'","itemCount":2,"blockBytes":8}` + "\n\x03\x03J55",
		`{"op":"sjq","cond":"V = 'dui'","itemCount":3,"blockBytes":8}` + "\n\x03\x03J55T21",
		`{"op":"sjq","cond":"V = 'dui'","itemCount":2,"blockBytes":8}` + "\n\x03\x09J55T21",
		`{"op":"fetch","itemCount":0,"blockBytes":0,"itemBlock":true}` + "\n",
		`{"op":"fetch","itemCount":1,"blockBytes":1,"itemBlock":true}` + "\n\x00",
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
		`{"qid":"q","itemCount":2,"blockBytes":8,"more":true}` + "\n\x03\x03J55T21" + `{"itemCount":1,"blockBytes":4}` + "\n\x03T80",
		`{"itemCount":2,"blockBytes":8}` + "\n\x03\x03J55",
		`{"itemCount":3,"blockBytes":8}` + "\n\x03\x03J55T21",
		`{"itemCount":2,"blockBytes":8}` + "\n\x03\x09J55T21",
		`{"itemCount":0,"blockBytes":0}` + "\n",
		`{"itemCount":1,"blockBytes":1}` + "\n\x00",
	}
)

// splitFrames splits the bytes a peer wrote into frames as a reader of
// item blocks must: encoding/json reads each line that is not blank, and
// referenceBlock the block that follows a line whose header announces one.
// It returns the frames up to the first that is not well formed, and why
// that one is not.
func splitFrames(data []byte) ([]Response, error) {
	var frames []Response
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i+1]
		}
		data = data[len(line):]
		if skipSpace(line, 0) == len(line) {
			continue
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return frames, err
		}
		if h := resp.blockHeader; h != (blockHeader{}) {
			items, ok := referenceBlock(h.ItemCount, h.BlockBytes, data)
			if !ok || len(resp.Items) > 0 {
				return frames, errBlock
			}
			resp.Items, resp.blockHeader, data = items, blockHeader{}, data[h.BlockBytes:]
		}
		frames = append(frames, resp)
	}
	return frames, nil
}

// FuzzServerFrame feeds arbitrary bytes to the serve loop over a net.Pipe.
// Whatever arrives, the loop must not panic, must answer only with
// well-formed response frames, and must hang up by itself — at the latest
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
		if _, err := splitFrames(out); err != nil {
			t.Fatalf("malformed response in %q: %v", out, err)
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
		frames, _ := splitFrames(data)
		for _, resp := range frames {
			if !resp.More {
				complete = true
				break
			}
		}
		fresh := func() *Conn {
			replies <- data
			return newConn(ln.Addr().String())
		}

		c := fresh()
		if _, err := c.Do(ctx, Request{Op: OpSelect, Cond: "V = 'dui'"}); err == nil && !complete {
			t.Fatal("Do succeeded on an answer without a final frame")
		}
		c.Close()

		c = fresh()
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

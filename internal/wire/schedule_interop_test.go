package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// startFixedChunkServer is a chunking peer from before chunks grew: it
// advertises the extension and answers a chunked sq with n sorted items in
// chunks of exactly req.Chunk items each.
func startFixedChunkServer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	schema := workload.DMV().Sources[0].Schema()
	meta := &Meta{Version: 1, Name: "R1", Merge: schema.Merge(), Columns: EncodeSchema(schema), Chunking: true}
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("ID%06d", i)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return
					}
					if req.Op == OpMeta {
						if enc.Encode(Response{Meta: meta}) != nil {
							return
						}
						continue
					}
					rest := items
					for len(rest) > req.Chunk {
						if enc.Encode(Response{QueryID: req.QueryID, Items: rest[:req.Chunk], More: true}) != nil {
							return
						}
						rest = rest[req.Chunk:]
					}
					if enc.Encode(Response{QueryID: req.QueryID, Items: rest}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// streamCharged streams c from cli through the accounting layer at first
// batch first and returns the delivered batch sizes, the items and how many
// exchanges the network charged.
func streamCharged(t *testing.T, cli *Client, c cond.Cond, first int) ([]int, []string, int) {
	t.Helper()
	network := netsim.NewNetwork(1)
	network.SetLink(cli.Name(), netsim.Link{})
	it, err := source.Instrument(cli, network).SelectStream(context.Background(), c, first)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var sizes []int
	var items []string
	for {
		batch, err := it.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return sizes, items, len(network.Log())
		}
		sizes = append(sizes, len(batch))
		items = append(items, batch...)
	}
}

// TestFixedChunkPeerStreamsIntoTheClient: a peer that cuts fixed-size chunks
// streams into this client whole and in order, and each chunk it delivers is
// charged as one exchange. The client takes chunks as they come; it never
// expects the schedule's sizes.
func TestFixedChunkPeerStreamsIntoTheClient(t *testing.T) {
	cli, err := DialContext(context.Background(), startFixedChunkServer(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sizes, items, charged := streamCharged(t, cli, cond.MustParse("V = 'dui'"), 64)
	if len(items) != 1000 || items[0] != "ID000000" || items[999] != "ID000999" {
		t.Fatalf("streamed %d items", len(items))
	}
	if len(sizes) != 16 || sizes[0] != 64 || sizes[15] != 1000-15*64 {
		t.Fatalf("batches %v, want 15 of 64 and one of 40", sizes)
	}
	if charged != len(sizes) {
		t.Fatalf("%d batches charged as %d exchanges", len(sizes), charged)
	}
}

// TestGrowingChunksReachEveryClient: this server's chunks grow by
// set.Schedule. A stream delivers them in order (the pump's order check
// passes) and charges one exchange each; a plain Conn.Do of the same chunked
// request, what a client that reassembles answers does, gets the whole
// answer.
func TestGrowingChunksReachEveryClient(t *testing.T) {
	cli, src := startSynthServer(t)
	c := cond.MustParse("A1 < 600")
	want, err := src.Select(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	sizes, items, charged := streamCharged(t, cli, c, 16)
	if !set.FromSorted(items).Equal(want) {
		t.Fatalf("streamed %d items, want %d", len(items), want.Len())
	}
	if wantSizes := scheduleSizes(want.Len(), 16); fmt.Sprint(sizes) != fmt.Sprint(wantSizes) || len(sizes) < 4 {
		t.Fatalf("batches %v, want the schedule's %v (at least 4)", sizes, wantSizes)
	}
	if charged != len(sizes) {
		t.Fatalf("%d batches charged as %d exchanges", len(sizes), charged)
	}
	resp, err := cli.Do(context.Background(), Request{Op: OpSelect, Cond: c.String(), Chunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !set.FromSorted(resp.Items).Equal(want) {
		t.Fatalf("Conn.Do reassembled %d items, want %d", len(resp.Items), want.Len())
	}
}

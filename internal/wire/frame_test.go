package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// lineSeeds are lines the block-line reader must read exactly as
// encoding/json does, or leave to it.
var lineSeeds = []string{
	`{"qid":"q","itemCount":2,"blockBytes":8,"more":true}`,
	`{"qid":"q","itemCount":2,"blockBytes":8,"planCached":true,"answerCached":false,"answerCached":true}`,
	`{"planCached":tru,"answerCached":true}`,
	`{"answerCached":true,"error":"boom"}`,
	`{"qid":"q","more":true,"itemCount":2,"blockBytes":8,"qid":"r","more":false}`,
	`{"qid":"q-1","more":true}`,
	` { "qid" : "q" , "more" : false } ` + "\r\n",
	`{"QID":"q","more":true}`,
	`{"qid":"ab","more":true}`,
	`{"qid":"` + "\xff" + `","more":true}`,
	`{"qid":7,"more":true}`,
	`{"qid":"q","more":null}`,
	`{"qid":"q","more":"true"}`,
	`{"qid":"q","more":truex}`,
	`{"itemCount":-1,"blockBytes":2}`,
	`{"itemCount":01,"blockBytes":2}`,
	`{"itemCount":1.5,"blockBytes":2}`,
	`{"itemCount":1e3,"blockBytes":2}`,
	`{"itemCount":123456789,"blockBytes":1234567890}`,
	`{"itemCount":99999999999999999999,"blockBytes":2}`,
	`{"itemCount":1,"blockBytes":1,"items":["a"]}`,
	`{"items":["a"],"more":true}`,
	`{"qid":"q","more":true,}`,
	`{,"qid":"q"}`,
	`{"qid":"q"}{"qid":"r"}`,
	`{"qid":"q"} x`,
	`{}`,
	`null`,
	``,
}

// blockSeeds are item arrays whose blocks, whole and damaged, seed
// FuzzFrameCodec.
var blockSeeds = [][]string{
	{""},
	{"", "", ""},
	{"a"},
	{"J55", "T21"},
	{"a\"b", "c d", "😀", "\xff", "<>&", "é", "\x00"},
	{strings.Repeat("x", 127), strings.Repeat("y", 128)},
	{strings.Repeat("z", itemBlock+1), "w"},
	{"ID000001", "ID000002", "ID000003", "ID000004"},
}

// FuzzFrameCodec is the item block's specification. A frame whose line
// announces arbitrary counts, followed by arbitrary bytes, read under the
// budget of its line and the block it announces, never panics: it fails,
// or gives exactly the items whose block those bytes are, which written
// again are those bytes. One byte less of budget is ErrFrameTooLarge,
// before anything is allocated. Any items, the pieces of the bytes between
// zero bytes, written as a block read back as themselves, the same whether
// written item by item or from their EncodeItems; written for a v1 peer
// they are json.Marshal's line. And the bytes as a line: the block-line
// reader reads one only as encoding/json does.
func FuzzFrameCodec(f *testing.F) {
	for _, seeds := range [][]string{requestSeeds, responseSeeds, lineSeeds} {
		for _, s := range seeds {
			f.Add(0, 0, []byte(s))
		}
	}
	for _, items := range blockSeeds {
		b := appendBlock(nil, items)
		n, size := len(items), len(b)
		nonMinimal := append([]byte{b[0] | 0x80, 0}, b[1:]...)
		f.Add(n, size, b)
		f.Add(n+1, size, b)               // a count above the block's
		f.Add(n-1, size, b)               // a count below it
		f.Add(n, size+1, b)               // a block cut short
		f.Add(n, size-1, b[:size-1])      // a length that runs past the block
		f.Add(n, size+1, nonMinimal)      // a length not in its shortest form
		f.Add(n, size, append(b, "x"...)) // bytes after the block
	}
	f.Add(-1, 4, []byte("\x01a\x01b"))
	f.Add(1, -1, []byte("\x01a"))
	f.Add(1<<40, 1<<40, []byte("\x01a"))
	f.Add(0, 2, []byte("\x01a"))
	f.Fuzz(func(t *testing.T, count, size int, data []byte) {
		line := fmt.Sprintf(`{"qid":"q","itemCount":%d,"blockBytes":%d,"more":true}`+"\n", count, size)
		framed := append([]byte(line), data...)
		want, valid := referenceBlock(count, size, data)
		exact := MaxFrameBytes
		if size >= 0 && size <= MaxFrameBytes-len(line) {
			exact = len(line) + size
		}
		var r frameReader
		var rd bytes.Reader
		var resp Response
		read := func(budget int) (int, error) {
			rd.Reset(framed)
			if r.br == nil {
				r.br = bufio.NewReader(&rd)
			}
			r.br.Reset(&rd)
			resp = Response{}
			err := r.read(&resp, &budget)
			return budget, err
		}
		left, err := read(exact)
		if valid != (err == nil) {
			t.Fatalf("count %d, size %d, block %q: the reference says %v, the reader %v", count, size, data, valid, err)
		}
		if err == nil {
			if !slices.Equal(resp.Items, want) || resp.QueryID != "q" || !resp.More || resp.blockHeader != (blockHeader{}) || left != exact-len(line)-max(size, 0) {
				t.Fatalf("count %d, size %d, block %q: read %+v, %d budget left, want items %q", count, size, data, resp, left, want)
			}
			if count > 0 {
				if got, _ := appendFrame(nil, &resp, true); !bytes.Equal(got, framed[:len(line)+size]) {
					t.Fatalf("items %q read from\n %q are written\n %q", want, framed, got)
				}
			}
		}
		if count >= 0 && count <= size && size < 1e9 && len(line)+size <= MaxFrameBytes {
			var err error
			allocs := testing.AllocsPerRun(1, func() { _, err = read(len(line) + size - 1) })
			if !errors.Is(err, ErrFrameTooLarge) || allocs > 0 {
				t.Fatalf("count %d, size %d: one byte short of the budget reads as %v after %.0f allocations, want ErrFrameTooLarge and none", count, size, err, allocs)
			}
		}

		items := strings.Split(string(data), "\x00")
		enc := EncodeItems(items)
		if !slices.Equal(enc.Items(), items) {
			t.Fatalf("EncodeItems(%q) holds %q", items, enc.Items())
		}
		plain := &Response{QueryID: "q", Items: items, More: true}
		written, err := appendFrame(nil, plain, true)
		if err != nil {
			t.Fatal(err)
		}
		if cached, _ := appendFrame(nil, &Response{QueryID: "q", Items: items, Encoded: &enc, More: true}, true); !bytes.Equal(cached, written) {
			t.Fatalf("items %q are written\n %q from their encoding,\n %q one by one", items, cached, written)
		}
		var back Response
		if err := decodeFrame(written, &back); err != nil || !slices.Equal(back.Items, items) {
			t.Fatalf("items %q written as a block read back as %q, %v", items, back.Items, err)
		}
		for _, v := range []frame{plain, &Request{Op: OpSemi, Cond: "V < 1", Items: items, Item: "x", Chunk: 2}} {
			want, _ := json.Marshal(v)
			if got, _ := appendFrame(nil, v, false); string(got) != string(want)+"\n" {
				t.Fatalf("items %q are written for a v1 peer\n %s, json.Marshal writes\n %s", items, got, want)
			}
		}

		var hand, std Response
		if readBlockLine(data, &hand) {
			if err := json.Unmarshal(data, &std); err != nil || !reflect.DeepEqual(hand, std) {
				t.Fatalf("the block-line reader reads %q as %+v, encoding/json as %+v, %v", data, hand, std, err)
			}
		}
	})
}

// referenceBlock decodes the block a line announcing count items in size
// bytes says follows it, from data, the bytes that follow: the obvious way,
// one item at a time. A zero header announces no block.
func referenceBlock(count, size int, data []byte) ([]string, bool) {
	if count == 0 && size == 0 {
		return nil, true
	}
	if count < 0 || size < 0 || size > len(data) {
		return nil, false
	}
	b := data[:size]
	lens := []uint64{}
	for range count {
		n, k := binary.Uvarint(b)
		if k <= 0 || k != len(binary.AppendUvarint(nil, n)) {
			return nil, false
		}
		lens, b = append(lens, n), b[k:]
	}
	items := []string{}
	for _, n := range lens {
		if n > uint64(len(b)) {
			return nil, false
		}
		items, b = append(items, string(b[:n])), b[n:]
	}
	return items, len(b) == 0
}

// decodeFrame reads the frame in data into v under the whole budget.
func decodeFrame(data []byte, v frame) error {
	r := frameReader{br: bufio.NewReader(bytes.NewReader(data))}
	budget := MaxFrameBytes
	return r.read(v, &budget)
}

// TestFrameReader: a frame is a line, or a line and its block. Blank lines
// between frames are skipped but charged, and so is every byte of a block,
// bytes left unterminated before a hang-up are the last frame, and a buffer
// that grew for a large line or block is not kept.
func TestFrameReader(t *testing.T) {
	big, _ := chunkFrame(2 * maxKeptBuffer / 8)
	long := `{"qid":"` + strings.Repeat("q", maxKeptBuffer) + `","items":["a"]}` + "\n"
	stream := "\n \r\n" + `{"items":["a"],"more":true}` + "\n\n" + string(big) + long + `{"error":"tail"}`
	r := frameReader{br: bufio.NewReader(strings.NewReader(stream))}
	budget := len(stream)
	var first, second, third, fourth Response
	for _, resp := range []*Response{&first, &second, &third, &fourth} {
		if err := r.read(resp, &budget); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.Items) != 1 || !first.More || len(second.Items) != 2*maxKeptBuffer/8 || len(third.Items) != 1 || fourth.Error != "tail" {
		t.Fatalf("read %d items (more %v), %d items, %d items, error %q", len(first.Items), first.More, len(second.Items), len(third.Items), fourth.Error)
	}
	if budget != 0 {
		t.Errorf("%d bytes of budget left, want every byte of the stream charged", budget)
	}
	if cap(r.spill) > maxKeptBuffer || cap(r.block) > maxKeptBuffer {
		t.Errorf("after a line of %d bytes and a block of %d the reader keeps %d and %d, want at most %d", len(long), len(big), cap(r.spill), cap(r.block), maxKeptBuffer)
	}
	if err := r.read(&fourth, &budget); err != io.EOF {
		t.Errorf("read at the end of the stream = %v, want io.EOF", err)
	}
}

// TestConnDoesNotKeepALargeFrame: the request buffer of a connection that
// sent one large semijoin set goes back to what ordinary frames need.
func TestConnDoesNotKeepALargeFrame(t *testing.T) {
	cli := startDMVServers(t)[0].(*Client)
	_, items := chunkFrame(4 * maxKeptBuffer / 10)
	got, err := cli.Semijoin(context.Background(), cond.MustParse("V = 'dui'"), set.New(append(items, "J55")...))
	if err != nil || !got.Equal(set.New("J55")) {
		t.Fatalf("Semijoin = %v, %v", got, err)
	}
	cli.sem <- struct{}{}
	defer cli.release()
	if cap(cli.out) > maxKeptBuffer {
		t.Errorf("the connection keeps a request buffer of %d bytes, want at most %d", cap(cli.out), maxKeptBuffer)
	}
}

// chunkFrame is the frame of a chunk of n items as a server sends it to a
// client that asked for blocks.
func chunkFrame(n int) ([]byte, []string) {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("k%07d", i)
	}
	return mustFrame(&Response{QueryID: "q-1", Items: items, More: true}, true), items
}

func mustFrame(v frame, block bool) []byte {
	out, err := appendFrame(nil, v, block)
	if err != nil {
		panic(err)
	}
	return out
}

// TestDecodeChunkAllocs pins what reading a chunk allocates: the item
// slice, the strings behind the items and the qid — nothing per item, and
// no encoding/json. A stream's pump reads into pooled buffers
// (frameReader.lend), so there the item slice is not allocated either: one
// allocation fewer once the pool is warm.
func TestDecodeChunkAllocs(t *testing.T) {
	for _, n := range []int{256, 10000} {
		frame, items := chunkFrame(n)
		for _, lend := range []bool{false, true} {
			limit := 4.0
			if lend {
				limit = 3
			}
			if n > 256 {
				limit += float64((len(frame) + itemBlock - 1) / itemBlock)
			}
			var resp Response
			var rd bytes.Reader
			r := frameReader{br: bufio.NewReader(&rd), lend: lend}
			allocs := testing.AllocsPerRun(20, func() {
				set.PutBatch(r.lent)
				rd.Reset(frame)
				r.br.Reset(&rd)
				resp = Response{}
				budget := MaxFrameBytes
				if err := r.read(&resp, &budget); err != nil {
					t.Fatal(err)
				}
			})
			if !reflect.DeepEqual(resp.Items, items) || resp.QueryID != "q-1" || !resp.More {
				t.Fatalf("%d items decoded to qid %q, more %v, %d items", n, resp.QueryID, resp.More, len(resp.Items))
			}
			if lend != (r.lent != nil) || lend && &(*r.lent)[0] != &resp.Items[0] {
				t.Fatalf("%d items, lend %v: the items are not in the lent buffer", n, lend)
			}
			if allocs > limit {
				t.Errorf("a frame of %d items (%d bytes, lend %v) decodes in %.0f allocations, want at most %.0f", n, len(frame), lend, allocs, limit)
			}
		}
	}
}

// TestEncodeCachedAllocs: a response that carries its items' encoding is
// written without visiting an item, so what writing it allocates does not
// grow with the answer, and the frame is the one written item by item.
func TestEncodeCachedAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{100, 10000} {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("<%07d>", i)
		}
		enc := EncodeItems(items)
		resp := Response{QueryID: "q-1", Items: items, Encoded: &enc, AnswerCached: true}
		var out []byte
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			var err error
			if out, err = appendFrame(out[:0], &resp, true); err != nil {
				t.Fatal(err)
			}
		}))
		if want := mustFrame(&Response{QueryID: "q-1", Items: items, AnswerCached: true}, true); !bytes.Equal(out, want) {
			t.Fatalf("a response of %d items carrying their encoding is written as %.80q..., want %.80q...", n, out, want)
		}
	}
	// Under -race a dropped encoder state costs json.Marshal an allocation
	// or two more on some runs, at either size.
	if slack := 2.0; allocs[0] != allocs[1] && (!raceDetector || allocs[1] > allocs[0]+slack) {
		t.Errorf("writing a response that carries its encoding allocates %.0f times at 100 items and %.0f at 10 000, want the same", allocs[0], allocs[1])
	}
}

// BenchmarkFrameCodec measures one frame through the codec in each
// direction at a chunk's size and at a whole answer's. The block rows are
// what in-tree peers exchange, read as a connection reads them; the json
// rows are encoding/json alone on a v1 peer's line for the same items,
// which is how a v1 peer's frames are now coded. The items=2000 frame is
// answer-hot's: an answer-cache hit of ID%06d items, unchunked. The
// encode/block/cached row writes the frame from its items' encoding, as
// the service writes a cached answer.
func BenchmarkFrameCodec(b *testing.B) {
	_, chunk := chunkFrame(256)
	_, answer := chunkFrame(10000)
	hit := make([]string, 2000)
	for i := range hit {
		hit[i] = fmt.Sprintf("ID%06d", 2*i)
	}
	for _, resp := range []Response{
		{QueryID: "q-1", Items: chunk, More: true},
		{QueryID: "q-1", Items: answer, More: true},
		{Items: hit, AnswerCached: true},
	} {
		run := func(name string, frame []byte, fn func() error) {
			b.Run(fmt.Sprintf("%s/items=%d", name, len(resp.Items)), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		var out []byte
		frame, line := mustFrame(&resp, true), mustFrame(&resp, false)
		run("encode/block", frame, func() (err error) {
			out, err = appendFrame(out[:0], &resp, true)
			return err
		})
		cached, enc := resp, EncodeItems(resp.Items)
		cached.Encoded = &enc
		run("encode/block/cached", frame, func() (err error) {
			out, err = appendFrame(out[:0], &cached, true)
			return err
		})
		var rd bytes.Reader
		r := frameReader{br: bufio.NewReader(&rd)}
		run("decode/block", frame, func() error {
			rd.Reset(frame)
			r.br.Reset(&rd)
			var got Response
			budget := MaxFrameBytes
			return r.read(&got, &budget)
		})
		run("encode/json", line, func() (err error) {
			out, err = json.Marshal(&resp)
			return err
		})
		run("decode/json", line, func() error {
			var got Response
			return json.Unmarshal(line, &got)
		})
	}
}

// recorder forwards connections to upstream and keeps every byte that
// passed each way.
type recorder struct {
	mu       sync.Mutex
	sent, in bytes.Buffer
}

func (r *recorder) add(to *bytes.Buffer, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	to.Write(b)
}

// record listens for connections, forwards each to upstream and records
// what passes, before passing it on.
func record(t *testing.T, upstream string) (string, *recorder) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	rec := &recorder{}
	pipe := func(dst, src net.Conn, to *bytes.Buffer) {
		defer dst.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				rec.add(to, buf[:n])
				if _, err := dst.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				return
			}
			go pipe(up, down, &rec.sent)
			go pipe(down, up, &rec.in)
		}
	}()
	return ln.Addr().String(), rec
}

// lines returns the lines of the frames in data, each block skipped.
func lines(t *testing.T, data []byte) []string {
	t.Helper()
	var out []string
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			t.Fatalf("a frame without its newline: %q", data)
		}
		var h blockHeader
		if err := json.Unmarshal(data[:i], &h); err != nil || h.BlockBytes > len(data)-i-1 {
			t.Fatalf("frame %q: %v", data[:i], err)
		}
		out, data = append(out, string(data[:i])), data[i+1+h.BlockBytes:]
	}
	return out
}

// TestBlockPeersNegotiateTheBlock: a client and a server of this build
// speak the item block with no option set. The client asks for blocks on
// every request after the handshake and sends a semijoin's Y as one, and
// every answer that has items, each chunk of a stream too, comes back as
// one: no line either way carries an items array.
func TestBlockPeersNegotiateTheBlock(t *testing.T) {
	srv, err := ServeConfig(workload.DMV().Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, rec := record(t, srv.Addr())
	ctx := context.Background()
	cli, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	c := cond.MustParse("V = 'dui'")
	if got, err := cli.Semijoin(ctx, c, set.New("T21", "J55")); err != nil || !slices.Equal(got.Items(), []string{"J55"}) {
		t.Fatalf("Semijoin = %v, %v", got, err)
	}
	it, err := cli.SelectStream(ctx, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := set.Collect(ctx, it); err != nil || !slices.Equal(got.Items(), []string{"J55", "T80"}) {
		t.Fatalf("SelectStream = %v, %v", got, err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sent, in := lines(t, rec.sent.Bytes()), lines(t, rec.in.Bytes())
	if len(sent) != 3 || len(in) != 4 {
		t.Fatalf("%d request lines and %d response lines, want 3 (meta, sjq, sq) and 4 (meta, sjq, two chunks)", len(sent), len(in))
	}
	if !strings.Contains(sent[1], `"itemCount":2,"blockBytes":8`) {
		t.Errorf("the semijoin went out as %s, want its Y as a block", sent[1])
	}
	for _, line := range append(sent[1:], in[1:]...) {
		if strings.Contains(line, `"items"`) {
			t.Errorf("%s carries an items array", line)
		}
	}
	for _, line := range sent[1:] {
		if !strings.Contains(line, `"itemBlock":true`) {
			t.Errorf("%s does not ask for blocks", line)
		}
	}
	for _, line := range in[1:] {
		if !strings.Contains(line, `"itemCount":1,"blockBytes":4`) {
			t.Errorf("%s does not announce the block of one item", line)
		}
	}
}

package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/set"
)

// frameSeeds are lines whose items member the hand codec must read exactly
// as encoding/json does, or leave to it.
var frameSeeds = []string{
	`{"items":["a\"b","c d","\ud83d\ude00","\ud800","` + "\xff" + `","<>&","é"]}`,
	`{"items":["a"],"items":["b"]}`,
	`{"items":["a"],"ITEMS":["b"]}`,
	`{"ITEMS":["b"],"items":["a"]}`,
	`{"items":["a"],"\u0069tems":["b"]}`,
	`{"items":["a"],"itemſ":["b"]}`,
	`{"items":null}`,
	`{"items":[]}`,
	`{"items":[ ]}`,
	`{"items":["a",7,null]}`,
	`{"items":["a",]}`,
	`{"items":["a"],}`,
	`{,"items":["a"]}`,
	`{"items":["a" "b"]}`,
	`{"items":["` + "a\tb" + `"]}`,
	`{"items":["\q"]}`,
	`{"items":["\u12"]}`,
	`{"meta":{"items":["x"],"name":"R"},"frag":{"items":7}}`,
	`{"op":"sjq","cond":"V = 'sp'","items":["J55","T21"],"item":"x","chunk":2}`,
	`{"op":7,"items":["a"]}`,
	`{"qid":"q","items":["a","b"],"more":true}`,
	`{"qid":"a","items":["x"],"more":true,"more":false,"qid":""}`,
	`{"more":null,"items":["x"]}`,
	`{"more":"true","items":["x"]}`,
	`{"more":truex,"items":["x"]}`,
	`{"MORE":true,"items":["x"]}`,
	`{"qid":"a\u0062","items":["x"]}`,
	`{"qid":7,"items":["x"]}`,
	"  \t{ \"items\" : [ \"a\" , \"b\" ] , \"more\" : true }  \r\n",
	"\n" + `{"items":["a"]}` + "\n",
	`{"items":["a"]}{"items":["b"]}`,
	`{"items":["a"]} x`,
	`{"a":[{"b":"]}"}],"items":["a"],"c":{"d":[1,2]}}`,
	`{"a":[}],"items":["a"]}`,
	`{"a":tru"e,"items":["a"]}`,
	`["items"]`,
	`null`,
	`{}`,
	``,
	// The one-scan decoder: the literals' bounds are recorded as they are
	// read, so whitespace, escapes at each end, the 8-byte boundary, empty
	// bodies and cut lines must each land on the literal they belong to.
	"{\"items\":[ \"a\" ,\t\"b\"\r\n,\"c\"  ]}",
	`{"items":["\n","b","c"]}`,
	`{"items":["a","\u0062c","d"]}`,
	`{"items":["a","b","c\\"]}`,
	`{"items":["ID000001","ID0000012","ID00000\"","ID000001\""]}`,
	`{"items":["","",""," "]}`,
	`{"items":["x","a\"b\"c","y"]}`,
	`{"items":["ab","cdé","fg"]}`,
	`{"items":["ab","c` + "\x01" + `d","ef"]}`,
	`{"items":["abc","de`,
	`{"items":["abc\"`,
}

// FuzzFrameCodec is the codec's specification: the hand-written half agrees
// with encoding/json on every input. Decoding arbitrary bytes as a line
// gives the Request and the Response json.Unmarshal gives, or both fail; and
// encoding arbitrary items (the pieces of the input between commas, and
// whatever items it decoded to) gives the bytes json.Marshal gives, item by
// item or from the items' EncodeItems, whose items are the items.
func FuzzFrameCodec(f *testing.F) {
	for _, seeds := range [][]string{requestSeeds, responseSeeds, frameSeeds} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wantReq, gotReq Request
		decodeBoth(t, data, &wantReq, &gotReq)
		var wantResp, gotResp Response
		decodeBoth(t, data, &wantResp, &gotResp)

		for _, items := range [][]string{strings.Split(string(data), ","), gotReq.Items, gotResp.Items} {
			encodeBoth(t, &Request{Op: OpSemi, Cond: "V < 1", Items: items, Item: "x", Chunk: 2})
			encodeBoth(t, &Response{QueryID: `"items":[""]`, Items: items, More: true, Frag: &Fragment{Source: "R"}})
			enc := EncodeItems(items)
			if !slices.Equal(enc.Items(), items) {
				t.Fatalf("EncodeItems(%q) holds %q", items, enc.Items())
			}
			encodeBoth(t, &Response{QueryID: "q", Items: items, Encoded: &enc, AnswerCached: true})
		}
	})
}

// decodeFrame decodes line into v with one reader, as a connection decodes
// frame after frame, with scratch for its residue, and returns the residue
// buffer for reuse. The tests that call it do not run in parallel.
func decodeFrame(line []byte, v frame, scratch []byte) ([]byte, error) {
	lineReader.residue = scratch
	err := lineReader.decode(line, v)
	return lineReader.residue, err
}

var lineReader frameReader

func decodeBoth(t *testing.T, line []byte, want, got frame) {
	t.Helper()
	wantErr := json.Unmarshal(line, want)
	_, gotErr := decodeFrame(line, got, nil)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q into %T: encoding/json says %v, the frame decoder %v", line, want, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%q:\n encoding/json %#v\n frame decoder %#v", line, want, got)
	}
}

func encodeBoth(t *testing.T, v frame) {
	t.Helper()
	items := *v.itemsField()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendFrame(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("items %q:\n json.Marshal %s\n appendFrame  %s", items, want, got)
	}
	if !reflect.DeepEqual(*v.itemsField(), items) {
		t.Fatalf("appendFrame left the frame with items %q, had %q", *v.itemsField(), items)
	}
}

// TestFrameReader: a frame is a line. Blank lines between frames are
// skipped but charged, bytes left unterminated before a hang-up are the last
// frame, and a buffer that grew for a large frame is not kept, nor are the
// bounds of its items.
func TestFrameReader(t *testing.T) {
	big, _ := chunkFrame(2 * maxKeptBuffer / 10)
	stream := "\n \r\n" + `{"items":["a"],"more":true}` + "\n\n" + string(big) + `{"error":"tail"}`
	r := frameReader{br: bufio.NewReader(strings.NewReader(stream))}
	budget := len(stream)
	var first, second, third Response
	for _, resp := range []*Response{&first, &second, &third} {
		if err := r.read(resp, &budget); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.Items) != 1 || !first.More || len(second.Items) != 2*maxKeptBuffer/10 || third.Error != "tail" {
		t.Fatalf("read %d items (more %v), %d items, error %q", len(first.Items), first.More, len(second.Items), third.Error)
	}
	if budget != 0 {
		t.Errorf("%d bytes of budget left, want every byte of the stream charged", budget)
	}
	if len(big) <= maxKeptBuffer || cap(r.spill) > maxKeptBuffer || cap(r.residue) > maxKeptBuffer {
		t.Errorf("after a frame of %d bytes the reader keeps %d and %d, want at most %d", len(big), cap(r.spill), cap(r.residue), maxKeptBuffer)
	}
	if bounds := uintptr(cap(r.lits)) * reflect.TypeFor[literal]().Size(); bounds > maxKeptBuffer {
		t.Errorf("after a frame of %d items the reader keeps %d bytes of their bounds, want at most %d", len(second.Items), bounds, maxKeptBuffer)
	}
	if err := r.read(&third, &budget); err != io.EOF {
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

// chunkFrame is the line of a chunk of n items as a server sends it.
func chunkFrame(n int) ([]byte, []string) {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("k%07d", i)
	}
	line, err := appendFrame(nil, &Response{QueryID: "q-1", Items: items, More: true})
	if err != nil {
		panic(err)
	}
	return line, items
}

// TestDecodeChunkAllocs pins what decoding a frame allocates: the item
// slice, the blocks behind the items, and what encoding/json needs for the
// residue — nothing per item.
func TestDecodeChunkAllocs(t *testing.T) {
	for _, n := range []int{256, 10000} {
		line, items := chunkFrame(n)
		limit := 4.0
		if n > 256 {
			limit += float64((len(line) + itemBlock - 1) / itemBlock)
		}
		var resp Response
		var scratch []byte
		allocs := testing.AllocsPerRun(20, func() {
			resp = Response{}
			var err error
			if scratch, err = decodeFrame(line, &resp, scratch[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(resp.Items, items) || resp.QueryID != "q-1" || !resp.More {
			t.Fatalf("%d items decoded to qid %q, more %v, %d items", n, resp.QueryID, resp.More, len(resp.Items))
		}
		if allocs > limit {
			t.Errorf("a frame of %d items (%d bytes) decodes in %.0f allocations, want at most %.0f", n, len(line), allocs, limit)
		}
	}
}

// TestEncodeCachedAllocs: a response that carries its items' encoding is
// written without visiting an item, so what writing it allocates does not
// grow with the answer. The items are ones json.Marshal escapes, which the
// item-by-item encoder marshals one at a time.
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
			if out, err = appendFrame(out[:0], &resp); err != nil {
				t.Fatal(err)
			}
		}))
		if want, _ := json.Marshal(&resp); string(out) != string(want)+"\n" {
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
// direction at a chunk's size and at a whole answer's, beside what
// encoding/json alone did for the same line (the json rows). The items=2000
// frame is answer-hot's: an answer-cache hit of ID%06d items, unchunked.
// The encode/cached rows write the frame from its items' encoding, as the
// service writes a cached answer.
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
		line, err := appendFrame(nil, &resp)
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, fn func() error) {
			b.Run(fmt.Sprintf("%s/items=%d", name, len(resp.Items)), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(line)))
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		var out, scratch []byte
		run("encode", func() (err error) {
			out, err = appendFrame(out[:0], &resp)
			return err
		})
		cached, enc := resp, EncodeItems(resp.Items)
		cached.Encoded = &enc
		run("encode/cached", func() (err error) {
			out, err = appendFrame(out[:0], &cached)
			return err
		})
		run("encode/json", func() (err error) {
			out, err = json.Marshal(&resp)
			return err
		})
		run("decode", func() (err error) {
			var got Response
			scratch, err = decodeFrame(line, &got, scratch[:0])
			return err
		})
		run("decode/json", func() error {
			var got Response
			return json.Unmarshal(line, &got)
		})
	}
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fusionq/internal/racetest"
	"fusionq/internal/set"
)

// lineSeeds are lines the hand reader must read exactly as encoding/json
// does, or leave to it: escapes and bytes it reads and does not, duplicate
// and case-variant keys, null, integers at and past what an int holds, a
// nested frag, and plain damage.
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
	`{"Op":"sq","cond":"V = 'dui'"}`,
	`{"qid":null}`,
	`{"frag":null}`,
	`{"conds":null,"op":"query"}`,
	`{"itemCount":-0,"blockBytes":2}`,
	`{"itemCount":999999999999999999,"blockBytes":-999999999999999999}`,
	`{"itemCount":9223372036854775807,"blockBytes":2}`,
	`{"op":"sq","chunk":-9223372036854775808}`,
	`{"op":"sq","chunk":-9223372036854775809}`,
	`{"itemCount":9999999999999999999}`,
	`{"op":"sq","qid":"q-9","cond":"A1 < 500 AND V = 'a\"b\\c'","chunk":64,"frag":true,"itemBlock":true}`,
	`{"op":"sq","cond":"A1 \u003c 500"}`,
	`{"op":"sq","cond":"A1 \u003C 500"}`,
	`{"op":"sq","cond":"A1 < 500 \u003e \u0026"}`,
	`{"op":"sq","cond":"A1 \u00"}`,
	`{"op":"sq","cond":"A"}`,
	`{"op":"sq","cond":"a\/b"}`,
	`{"op":"sq","cond":"V = 'é'"}`,
	`{"op":"sq","cond":"V = '` + "\t" + `'"}`,
	`{"op":"sq","cond":"V = '` + "\x7f" + `'"}`,
	`{"op":"sjqb","cond":"V = 'dui'","filter":"QAAAAAAAAAAHAAAAAAAAAAIAAAAAAAAACCCAQCCFFEI="}`,
	`{"op":"binding","cond":"V = 'dui'","item":"J\u002655"}`,
	`{"op":"bogus","op":"lq"}`,
	`{"op":"` + "é" + `"}`,
	`{"op":"query","tenant":"bench","conds":["A1 \u003c 500","A2 \u003e 7","V = 'x \u0026 y'"],"itemBlock":true}`,
	`{"op":"query","tenant":"t","conds":[]}`,
	`{"op":"query","tenant":"t","conds":["a"],"conds":["b","c"]}`,
	`{"op":"query","conds":["a",]}`,
	`{"op":"query","conds":["a" "b"]}`,
	`{"op":"query","conds":[ "a" , "b" ] ,"stream":true}`,
	`{"op":"query","conds":["a",7]}`,
	`{"qid":"q","itemCount":1,"blockBytes":3,"frag":{"source":"R1","op":"sq","queueUs":3,"queueDepth":1,"parseUs":2,"scanUs":40,"chunkUs":9,"totalUs":60,"bytesIn":9,"bytesOut":2}}`,
	`{"frag":{"source":"R1","op":"sq","queueDepth":4},"frag":{"source":"R2","totalUs":5}}`,
	`{"frag":{"source":"R1","Op":"sq"}}`,
	`{"frag":{"source":"R1","op":"sq","queueUs":1.5}}`,
	`{"frag":{},"more":false}`,
	`{"frag":{"source":"R1",}}`,
	`{"frag":true}`,
	`{"error":"shed: quota","code":"shed:quota"}`,
	`{"match":true,"qid":"q"}`,
	`{"meta":{"version":1,"name":"R1","merge":"L","columns":[{"name":"L","kind":"string"}]}}`,
	`{"tuples":[[{"k":"string","v":"J55"}]]}`,
}

// FuzzFrameLine is the line codec's specification. Whatever the bytes, the
// hand reader reads them as a request line or a response line only when
// json.Unmarshal reads the same value from them. And whatever value
// json.Unmarshal reads from them, as a request or a response, the writer
// writes it as json.Marshal does: its line and a newline, and with a block
// the line json.Marshal writes with the block's header in place of the
// items.
func FuzzFrameLine(f *testing.F) {
	for _, seeds := range [][]string{lineSeeds, requestSeeds, responseSeeds} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := frameReader{qid: "q-1", tenant: "t", source: "R1"}
		var handReq, stdReq Request
		if r.requestLine(data, &handReq) {
			if err := json.Unmarshal(data, &stdReq); err != nil || !reflect.DeepEqual(handReq, stdReq) {
				t.Fatalf("the hand reader reads %q as the request %+v, encoding/json as %+v, %v", data, handReq, stdReq, err)
			}
		}
		var handResp, stdResp Response
		if r.responseLine(data, &handResp) {
			if err := json.Unmarshal(data, &stdResp); err != nil || !reflect.DeepEqual(handResp, stdResp) {
				t.Fatalf("the hand reader reads %q as the response %+v, encoding/json as %+v, %v", data, handResp, stdResp, err)
			}
		}
		var req Request
		if json.Unmarshal(data, &req) == nil {
			blocked := req
			blocked.Items, blocked.blockHeader = nil, blockHeader{ItemCount: len(req.Items), BlockBytes: blockSize(req.Items)}
			checkWritten(t, &req, &blocked)
		}
		var resp Response
		if json.Unmarshal(data, &resp) == nil {
			blocked := resp
			blocked.Items, blocked.blockHeader = nil, blockHeader{ItemCount: len(resp.Items), BlockBytes: blockSize(resp.Items)}
			checkWritten(t, &resp, &blocked)
		}
	})
}

// checkWritten checks the frames appendFrame writes for v against
// json.Marshal: without a block, v's line; with one, when v has items, the
// line of blocked, which is v with the block's header in place of them.
func checkWritten(t *testing.T, v, blocked frame) {
	t.Helper()
	for _, block := range []bool{false, true} {
		got, err := appendFrame(nil, v, block)
		want, wantErr := json.Marshal(v)
		if items, _ := v.itemFields(); block && len(*items) > 0 {
			want, wantErr = json.Marshal(blocked)
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v (block %v): appendFrame fails with %v, json.Marshal with %v", v, block, err, wantErr)
		}
		if err != nil {
			continue
		}
		if line, rest, _ := bytes.Cut(got, []byte("\n")); !bytes.Equal(line, want) || len(got) == len(line) || (!block && len(rest) > 0) {
			t.Fatalf("%+v (block %v) is written\n %q\n json.Marshal writes\n %q", v, block, got, want)
		}
	}
}

// TestHotLinesAreHandWritten: the frames the hot paths write are all line.go's,
// none json.Marshal's, and each reads back by hand as itself.
func TestHotLinesAreHandWritten(t *testing.T) {
	for _, v := range hotFrames() {
		line, ok := []byte(nil), false
		var back frame
		switch f := v.(type) {
		case *Request:
			line, ok = appendRequestLine(nil, f, blockHeader{})
			var req Request
			if r := (frameReader{}); ok && r.requestLine(line, &req) {
				back = &req
			}
		case *Response:
			line, ok = appendResponseLine(nil, f, blockHeader{})
			var resp Response
			if r := (frameReader{}); ok && r.responseLine(line, &resp) {
				back = &resp
			}
		}
		if !ok || back == nil {
			t.Fatalf("%+v: written by hand %v as %s, and not read back by hand", v, ok, line)
		}
		withoutItems := func(v frame) frame {
			switch f := v.(type) {
			case *Request:
				c := *f
				c.Items = nil
				return &c
			case *Response:
				c := *f
				c.Items, c.Encoded = nil, nil
				return &c
			}
			return nil
		}
		if want := withoutItems(v); !reflect.DeepEqual(back, want) {
			t.Errorf("%s reads back as %+v, want %+v", line, back, want)
		}
	}
}

// hotFrames are frames as the hot paths write them: source requests with
// conditions json.Marshal escapes, a semijoin's and a query's, chunks, a
// final chunk with its fragment, an answer-cache hit, a refusal.
func hotFrames() []frame {
	items := []string{"J55", "T21", "T80"}
	enc := EncodeItems(items)
	return []frame{
		&Request{Op: OpSelect, QueryID: "q-1", Cond: "A1 < 500 AND V = 'a&b'", Chunk: 64, Frag: true, ItemBlock: true},
		&Request{Op: OpSemi, QueryID: "q-1", Cond: `V = "dui"`, Items: items, ItemBlock: true},
		&Request{Op: OpQuery, Tenant: "bench", Conds: []string{"A1 < 500", "A2 > 7", `B = 'x\y'`}, Stream: true, Chunk: 32, ItemBlock: true},
		&Response{QueryID: "q-1", Items: items, More: true},
		&Response{QueryID: "q-1", Items: items, Frag: &Fragment{Source: "R1", Op: OpSelect, QueueUS: 3, QueueDepth: 1, ParseUS: 2, ScanUS: 40, ChunkUS: 9, TotalUS: 60, BytesIn: 9, BytesOut: 9}},
		&Response{Items: items, Encoded: &enc, PlanCached: true, AnswerCached: true},
		&Response{Match: true},
		&Response{Error: "admission: tenant bench over quota", Code: "shed:quota"},
	}
}

// TestLineWriteAllocs: writing a hot frame, line and block, allocates
// nothing once the buffer has grown.
func TestLineWriteAllocs(t *testing.T) {
	for _, v := range hotFrames() {
		out := make([]byte, 0, 1<<10)
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if out, err = appendFrame(out[:0], v, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("writing %s allocates %v times, want none", bytes.TrimSpace(out[:bytes.IndexByte(out, '\n')]), allocs)
		}
	}
}

// TestLineReadAllocs pins what reading a line allocates: for a query of
// three conditions, the one string they are pieces of and their slice,
// the op a constant and the tenant the connection's last; for a final
// chunk, its fragment and the string its items are pieces of, the qid the
// request's and the fragment's source the last one read. The item slice is
// a buffer from the pool, which the reader's caller gives back.
func TestLineReadAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	query := &Request{Op: OpQuery, Tenant: "bench", Conds: []string{"A1 < 500", "A2 > 7", "V = 'x & y'"}, ItemBlock: true}
	final := &Response{QueryID: "q-1", Items: []string{"J55", "T21", "T80"}, Frag: &Fragment{Source: "R1", Op: OpSelect, QueueUS: 3, TotalUS: 60, BytesIn: 9, BytesOut: 9}}
	var req Request
	var resp Response
	for _, tc := range []struct{ v, into frame }{{query, &req}, {final, &resp}} {
		data := mustFrame(tc.v, true)
		var rd bytes.Reader
		r := frameReader{br: bufio.NewReader(&rd)}
		allocs := testing.AllocsPerRun(50, func() {
			set.Release(set.FromSorted(resp.Items))
			rd.Reset(data)
			r.br.Reset(&rd)
			budget := MaxFrameBytes
			if err := r.read(tc.into, &budget); err != nil {
				t.Fatal(err)
			}
		})
		if got := mustFrame(tc.into, true); !bytes.Equal(got, data) {
			t.Fatalf("%s reads back as %s", data, got)
		}
		if allocs > 2 {
			t.Errorf("reading %s allocates %v times, want at most 2", strings.TrimSpace(string(data[:bytes.IndexByte(data, '\n')])), allocs)
		}
	}
}

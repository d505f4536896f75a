package wire

import (
	"context"
	"os"
	"strings"
	"testing"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// TestRequestLines pins the bytes a client puts on the wire for each source
// operation, as Conn.send frames them: the lines are what the client sent
// before Call existed, captured from its socket, so a v1 server reads this
// build's requests as it read that one's.
func TestRequestLines(t *testing.T) {
	c := cond.MustParse("V = 'dui' AND D < 1995")
	y := set.New("T21", "J55")
	f := bloom.FromItems([]string{"J55", "T80"}, 10)
	for _, tc := range []struct {
		call source.Call
		line string
	}{
		{source.Call{Op: source.OpSelect, Cond: c},
			`{"op":"sq","cond":"V = 'dui' AND D \u003c 1995"}`},
		{source.Call{Op: source.OpSemi, Cond: c, Items: y},
			`{"op":"sjq","cond":"V = 'dui' AND D \u003c 1995","items":["J55","T21"]}`},
		{source.Call{Op: source.OpBinding, Cond: c, Item: "J55"},
			`{"op":"binding","cond":"V = 'dui' AND D \u003c 1995","item":"J55"}`},
		{source.Call{Op: source.OpLoad},
			`{"op":"lq"}`},
		{source.Call{Op: source.OpFetch, Items: y},
			`{"op":"fetch","items":["J55","T21"]}`},
		{source.Call{Op: source.OpSelectRecs, Cond: c},
			`{"op":"sqr","cond":"V = 'dui' AND D \u003c 1995"}`},
		{source.Call{Op: source.OpSemiRecs, Cond: c, Items: y},
			`{"op":"sjqr","cond":"V = 'dui' AND D \u003c 1995","items":["J55","T21"]}`},
		{source.Call{Op: source.OpSemiBloom, Cond: c, Filter: f},
			`{"op":"sjqb","cond":"V = 'dui' AND D \u003c 1995","filter":"QAAAAAAAAAAHAAAAAAAAAAIAAAAAAAAACCCAQCCFFEI="}`},
		{source.Call{Op: source.OpSelect, Cond: c, Batch: 2},
			`{"op":"sq","cond":"V = 'dui' AND D \u003c 1995","chunk":2}`},
	} {
		req := encodeCall(tc.call)
		got, err := appendFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.line+"\n" {
			t.Errorf("%s:\n got  %s\n want %s", tc.call.Op, got, tc.line)
		}
	}
}

// TestConditionsSurviveTheRequestCodec: a condition travels as its text, so
// every condition the parser accepts must reach the server as itself. The
// conditions are the parser's fuzz seeds, quoted and float literals included.
func TestConditionsSurviveTheRequestCodec(t *testing.T) {
	b, err := os.ReadFile("../cond/testdata/parse_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		c, err := cond.Parse(text)
		if err != nil {
			continue
		}
		got, err := decodeCall(encodeCall(source.Call{Op: source.OpSelect, Cond: c}))
		if err != nil {
			t.Errorf("%s: the server cannot read the request: %v", c, err)
		} else if got.Cond.String() != c.String() {
			t.Errorf("sent %s, the server read %s", c, got.Cond)
		}
	}
}

// TestDispatchRejectsMalformedOperations: a request is a peer's word. An
// operation without the condition or filter it needs, or one that is none of
// the eight, is answered with an error — it never reaches the source.
func TestDispatchRejectsMalformedOperations(t *testing.T) {
	srv, err := ServeConfig(workload.DMV().Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, req := range []Request{
		{Op: OpSelect},
		{Op: OpSemi, Items: []string{"J55"}},
		{Op: OpBinding, Item: "J55"},
		{Op: OpSemiBloom, Cond: "V = 'dui'"},
		{Op: OpSemiBloom, Cond: "V = 'dui'", Filter: "AAAA"},
		{Op: "bogus"},
		{Op: "bogus", Cond: "V = 'dui'"},
		{Op: OpQuery, Conds: []string{"V = 'dui'"}},
	} {
		if resp, _ := srv.dispatch(context.Background(), req); resp.Error == "" {
			t.Errorf("%+v answered %+v, want an error", req, resp)
		}
	}
}

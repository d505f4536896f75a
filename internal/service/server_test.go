package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// oddItemsServer serves an engine over one source whose answer to
// V = 'dui' is six items, four of which json.Marshal escapes.
func oddItemsServer(t *testing.T, answers AnswerCacheConfig) (*Engine, *Server) {
	t.Helper()
	schema := workload.DMVSchema()
	rel := relation.NewRelation(schema)
	for _, item := range []string{"<J55>", `T"21`, "é07", "S&07", "plain", `back\slash`} {
		rel.MustInsert(relation.String(item), relation.String("dui"), relation.Int(1993))
	}
	m := core.New(schema)
	m.SetNetwork(netsim.NewNetwork(7))
	src := source.NewWrapper("R1", source.NewRowBackend(rel), source.Capabilities{NativeSemijoin: true, PassedBindings: true})
	if err := m.AddSourceLink(src, netsim.Link{Latency: time.Millisecond, BytesPerSec: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	eng := NewEngine(m, Config{Metrics: reg, Answers: answers})
	srv, err := Serve(eng, "127.0.0.1:0", ServerConfig{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return eng, srv
}

// exchangeLines sends req on a connection of its own and returns the lines
// of the answer, up to the one without more.
func exchangeLines(t *testing.T, addr string, req wire.Request) ([]string, []wire.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	var lines []string
	var resps []wire.Response
	for br := bufio.NewReader(conn); ; {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d lines: %v", len(lines), err)
		}
		var resp wire.Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil || resp.Error != "" {
			t.Fatalf("line %q: %v %s", line, err, resp.Error)
		}
		lines, resps = append(lines, line), append(resps, resp)
		if !resp.More {
			return lines, resps
		}
	}
}

// TestAnswerLinesAreTheItemEncoders: a client that asks for no item block,
// as a v1 client does, gets a cached answer as json.Marshal's line for the
// response, byte for byte, on the miss that cached it and on every hit,
// although the server holds the entry's block and writes it to clients that
// ask. Four of the six items are ones json.Marshal escapes.
func TestAnswerLinesAreTheItemEncoders(t *testing.T) {
	eng, srv := oddItemsServer(t, AnswerCacheConfig{TTL: time.Minute})
	req := wire.Request{Op: wire.OpQuery, QueryID: "q-7", Tenant: "a", Conds: []string{`V = 'dui'`}}
	for i, wantHit := range []bool{false, true, true} {
		lines, resps := exchangeLines(t, srv.Addr(), req)
		resp := resps[0]
		if len(lines) != 1 || len(resp.Items) != 6 || resp.AnswerCached != wantHit {
			t.Fatalf("query %d: %d lines, %d items, answerCached %v, want 1, 6, %v", i, len(lines), len(resp.Items), resp.AnswerCached, wantHit)
		}
		want, err := json.Marshal(wire.Response{QueryID: "q-7", Items: resp.Items, PlanCached: resp.PlanCached, AnswerCached: resp.AnswerCached})
		if err != nil {
			t.Fatal(err)
		}
		if lines[0] != string(want)+"\n" {
			t.Fatalf("query %d:\n server   %s json.Marshal %s", i, lines[0], want)
		}
	}
	// A hit hands the server the entry's encoding.
	conds, err := ParseConds(req.Conds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnswerCached || len(res.encoded.Items()) != 6 {
		t.Fatalf("a hit (cached %v) carries an encoding of %d items, want 6", res.AnswerCached, len(res.encoded.Items()))
	}
}

// TestChunkedHitIsChunkedAsUncached: a hit asked for chunks smaller than
// the answer goes out in the chunks, with the more flags, of a run that
// never cached it; only the final chunk's cache annotations differ.
func TestChunkedHitIsChunkedAsUncached(t *testing.T) {
	_, cached := oddItemsServer(t, AnswerCacheConfig{TTL: time.Minute})
	_, uncached := oddItemsServer(t, AnswerCacheConfig{MaxEntries: -1})
	req := wire.Request{Op: wire.OpQuery, QueryID: "q-8", Tenant: "a", Conds: []string{`V = 'dui'`}, Chunk: 4}
	exchangeLines(t, cached.Addr(), req)
	hitLines, hits := exchangeLines(t, cached.Addr(), req)
	coldLines, colds := exchangeLines(t, uncached.Addr(), req)
	if !hits[len(hits)-1].AnswerCached || colds[len(colds)-1].AnswerCached {
		t.Fatal("the second run on the caching server was no hit, or the other server cached")
	}
	if len(hitLines) != 2 || len(coldLines) != 2 {
		t.Fatalf("6 items in chunks of 4 came as %d lines from a hit and %d from an uncached run, want 2", len(hitLines), len(coldLines))
	}
	for i := range hits {
		hit, cold := hits[i], colds[i]
		if hit.More != cold.More || len(hit.Items) != len(cold.Items) {
			t.Fatalf("chunk %d: a hit has %d items (more %v), an uncached run %d (more %v)", i, len(hit.Items), hit.More, len(cold.Items), cold.More)
		}
		for j := range hit.Items {
			if hit.Items[j] != cold.Items[j] {
				t.Fatalf("chunk %d item %d: %q from a hit, %q from an uncached run", i, j, hit.Items[j], cold.Items[j])
			}
		}
	}
	if hitLines[0] != coldLines[0] {
		t.Fatalf("first chunk:\n hit      %s uncached %s", hitLines[0], coldLines[0])
	}
}

package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/racetest"
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

// TestQueryLineAllocs: a query's correlation line reads as it always has,
// and handing it to a log that discards it allocates once.
func TestQueryLineAllocs(t *testing.T) {
	var logged string
	logf := func(format string, args ...interface{}) { logged = fmt.Sprintf(format, args...) }
	req := wire.Request{Op: wire.OpQuery, Tenant: "bench", Conds: []string{"A1 < 5", "A2 > 7"}, Stream: true}
	elapsed := 1234567 * time.Nanosecond
	for _, resp := range []wire.Response{
		{Items: []string{"a", "b"}, PlanCached: true, AnswerCached: true},
		{Error: `cond "x": bad`},
		{Error: "shed", Code: "shed:quota"},
	} {
		status := "ok"
		switch {
		case resp.Code != "":
			status = resp.Code
		case resp.Error != "":
			status = fmt.Sprintf("error=%q", resp.Error)
		}
		want := fmt.Sprintf("service: tenant=%s conds=%d stream=%v items=%d elapsed=%s planCached=%v answerCached=%v %s",
			req.Tenant, len(req.Conds), req.Stream, len(resp.Items), elapsed.Round(time.Microsecond), resp.PlanCached, resp.AnswerCached, status)
		if logQuery(logf, req, &resp, elapsed); logged != want {
			t.Errorf("logged %q, want %q", logged, want)
		}
	}
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	resp := wire.Response{AnswerCached: true}
	discard := func(string, ...interface{}) {}
	if allocs := testing.AllocsPerRun(100, func() { logQuery(discard, req, &resp, elapsed) }); allocs > 1 {
		t.Errorf("a correlation line costs %v allocations, want at most 1", allocs)
	}
}

// TestAnswerHitAllocs pins what an answer-cache hit allocates. Served
// through the server's dispatch it is 5: the request's key, made from its
// texts as they came, the admission slot's release (2), and the result with
// its answer; when a hit parsed its two conditions and rendered them into
// the key again, it was 9. Both ends in this process, a warm query through
// a service.Client over loopback, it is 11: the request and response lines
// are written and read by hand, the request's conditions in one string,
// and the service's correlation line is handed to the log in one
// allocation; through encoding/json and a correlation line of boxed values
// it was 31, and parsing the hit's conditions made it 15.
func TestAnswerHitAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	_, srv := oddItemsServer(t, AnswerCacheConfig{TTL: time.Minute})
	ctx := context.Background()
	cli, err := DialService(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conds := []string{`V = 'dui'`, `D > 1990`}
	for range 2 {
		if _, err := cli.Query(ctx, "a", conds, false); err != nil {
			t.Fatal(err)
		}
	}
	req := wire.Request{Op: wire.OpQuery, Tenant: "a", Conds: conds}
	served := testing.AllocsPerRun(200, func() {
		if resp := srv.dispatch(ctx, req); resp.Error != "" || !resp.AnswerCached || len(resp.Items) != 6 {
			t.Fatalf("a hit answered %+v", resp)
		}
	})
	if served > 5 {
		t.Errorf("serving an answer-cache hit allocates %v times, want at most 5", served)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if r, err := cli.Query(ctx, "a", conds, false); err != nil || !r.AnswerCached || len(r.Items) != 6 {
			t.Fatalf("a hit answered %+v, %v", r, err)
		}
	})
	if allocs > 11 {
		t.Errorf("an answer-cache hit allocates %v times, want at most 11", allocs)
	}
}

// TestEachRequestChargesOneLookup: whatever its spelling, a request charges
// one answer-cache hit or one miss, which service.answer_hit_share reads: a
// hit by its texts as sent, a hit whose texts had to be parsed to key it
// (a reordering keys alike unparsed, other spacing only parsed), and a miss
// either way; a one-condition conjunction misses after its two conditions.
func TestEachRequestChargesOneLookup(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{Metrics: reg, Answers: AnswerCacheConfig{TTL: time.Minute}})
	srv := &Server{eng: eng, metrics: reg}
	both := []string{"J55", "T21"}
	for i, step := range []struct {
		conds []string
		hit   bool
		items []string
	}{
		{[]string{`V = 'dui'`, `V = 'sp'`}, false, both},
		{[]string{`V = 'dui'`, `V = 'sp'`}, true, both},
		{[]string{`V = 'sp'`, `V = 'dui'`}, true, both},
		{[]string{`V='dui'`, ` V  =  'sp' `}, true, both},
		{[]string{`V = 'dui' AND V = 'sp'`}, false, nil},
		{[]string{`V='dui'AND V='sp'`}, true, nil},
		{[]string{`(V = 'sp')`}, false, []string{"J55", "S07", "T11", "T21"}},
		{[]string{`V = 'sp'`}, true, []string{"J55", "S07", "T11", "T21"}},
	} {
		hits0, misses0 := reg.Counter(obs.MAnswerCacheHits).Value(), reg.Counter(obs.MAnswerCacheMisses).Value()
		resp := srv.dispatch(context.Background(), wire.Request{Op: wire.OpQuery, Tenant: "a", Conds: step.conds})
		hits, misses := reg.Counter(obs.MAnswerCacheHits).Value()-hits0, reg.Counter(obs.MAnswerCacheMisses).Value()-misses0
		if want := map[bool][2]int64{true: {1, 0}, false: {0, 1}}[step.hit]; [2]int64{hits, misses} != want {
			t.Errorf("request %d %q charged %d hits and %d misses, want %d and %d", i, step.conds, hits, misses, want[0], want[1])
		}
		if resp.Error != "" || resp.AnswerCached != step.hit || fmt.Sprint(resp.Items) != fmt.Sprint(step.items) {
			t.Errorf("request %d %q answered %v (cached %v, error %q), want %v (cached %v)", i, step.conds, resp.Items, resp.AnswerCached, resp.Error, step.items, step.hit)
		}
	}
}

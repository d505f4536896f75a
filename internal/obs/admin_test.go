package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// adminGet fetches a path from the admin server, asserting the expected
// status, and returns the body and Content-Type.
func adminGet(t *testing.T, addr, path string, wantStatus int) ([]byte, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %q)", path, resp.StatusCode, wantStatus, body)
	}
	return body, resp.Header.Get("Content-Type")
}

// TestAdminDebugEndpoints exercises the introspection surface end to end
// against a live recorder: in-flight queries, the retained-trace index, one
// full trace by qid (including its 404 and 400 paths), and the endpoint
// scorecards — all JSON with the right Content-Type.
func TestAdminDebugEndpoints(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})

	done := rec.Begin("q-done", Text("SELECT L"))
	done.Exchange("R1", "sq", 64)
	tr := NewTrace()
	_, sp := StartSpan(With(context.Background(), &Obs{QueryID: "q-done", Trace: tr}), KindQuery, "fusion")
	sp.End(nil)
	rec.End(done, EndInfo{Trace: tr, Items: 2, Hedges: 1})
	rec.End(rec.Begin("q-err", Text("SELECT V")), EndInfo{Err: errors.New("exhausted")})
	live := rec.Begin("q-live", Text("SELECT M"))
	live.Exchange("R2", "lq", 512)

	type card struct {
		Endpoint string `json:"endpoint"`
		Breaker  string `json:"breaker"`
	}
	srv, err := ServeAdminConfig("127.0.0.1:0", AdminConfig{
		Registry: NewRegistry(),
		Recorder: rec,
		Scorecards: func() any {
			return []card{{Endpoint: "dmv_ca", Breaker: "closed"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// /debug/queries: the one in-flight query with its source traffic.
	body, ct := adminGet(t, srv.Addr(), "/debug/queries", http.StatusOK)
	if ct != "application/json" {
		t.Fatalf("/debug/queries Content-Type = %q", ct)
	}
	var queries struct {
		Queries []LiveQueryInfo `json:"queries"`
	}
	if err := json.Unmarshal(body, &queries); err != nil {
		t.Fatalf("/debug/queries: %v in %q", err, body)
	}
	if len(queries.Queries) != 1 || queries.Queries[0].QueryID != "q-live" {
		t.Fatalf("/debug/queries = %+v, want the one live query", queries.Queries)
	}
	if src := queries.Queries[0].Sources["R2"]; src.Exchanges != 1 || src.Bytes != 512 {
		t.Fatalf("live source info = %+v", src)
	}

	// /debug/traces: both completed records, summary form (span count, no
	// span bodies).
	body, ct = adminGet(t, srv.Addr(), "/debug/traces", http.StatusOK)
	if ct != "application/json" {
		t.Fatalf("/debug/traces Content-Type = %q", ct)
	}
	var traces struct {
		Traces []RecordSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatalf("/debug/traces: %v in %q", err, body)
	}
	if len(traces.Traces) != 2 {
		t.Fatalf("/debug/traces has %d records, want 2: %+v", len(traces.Traces), traces.Traces)
	}
	byID := map[string]RecordSummary{}
	for _, s := range traces.Traces {
		byID[s.QueryID] = s
	}
	if s := byID["q-done"]; s.Status != "ok" || s.Hedges != 1 || s.Spans != 1 || s.Items != 2 {
		t.Fatalf("q-done summary = %+v", s)
	}
	if s := byID["q-err"]; s.Status != "error" || !strings.Contains(s.Error, "exhausted") {
		t.Fatalf("q-err summary = %+v", s)
	}
	if strings.Contains(string(body), `"spans":[`) {
		t.Fatalf("trace index leaked span bodies: %s", body)
	}

	// /debug/trace?qid=: the full record, spans included.
	body, ct = adminGet(t, srv.Addr(), "/debug/trace?qid=q-done", http.StatusOK)
	if ct != "application/json" {
		t.Fatalf("/debug/trace Content-Type = %q", ct)
	}
	var full QueryRecord
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatalf("/debug/trace: %v in %q", err, body)
	}
	if full.QueryID != "q-done" || len(full.Spans) != 1 || full.Spans[0].Name != "fusion" {
		t.Fatalf("full record = %+v", full)
	}

	// Unknown qid is a 404, a missing qid a 400.
	adminGet(t, srv.Addr(), "/debug/trace?qid=q-nope", http.StatusNotFound)
	adminGet(t, srv.Addr(), "/debug/trace", http.StatusBadRequest)

	// /debug/endpoints relays the scorecard feed.
	body, ct = adminGet(t, srv.Addr(), "/debug/endpoints", http.StatusOK)
	if ct != "application/json" {
		t.Fatalf("/debug/endpoints Content-Type = %q", ct)
	}
	var endpoints struct {
		Endpoints []card `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &endpoints); err != nil {
		t.Fatalf("/debug/endpoints: %v in %q", err, body)
	}
	if len(endpoints.Endpoints) != 1 || endpoints.Endpoints[0].Endpoint != "dmv_ca" {
		t.Fatalf("/debug/endpoints = %+v", endpoints.Endpoints)
	}
}

// TestAdminDebugEndpointsWithoutRecorder checks the degenerate listener (a
// bare registry, as on fqsource): the debug endpoints serve empty
// collections rather than erroring, so any admin address feeds fqtop.
func TestAdminDebugEndpointsWithoutRecorder(t *testing.T) {
	srv, err := ServeAdminConfig("127.0.0.1:0", AdminConfig{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	for path, want := range map[string]string{
		"/debug/queries":   `{"queries":[]}`,
		"/debug/traces":    `{"traces":[]}`,
		"/debug/endpoints": `{"endpoints":[]}`,
	} {
		body, ct := adminGet(t, srv.Addr(), path, http.StatusOK)
		if ct != "application/json" {
			t.Fatalf("%s Content-Type = %q", path, ct)
		}
		if string(body) != want {
			t.Fatalf("%s = %q, want %q", path, body, want)
		}
	}
	adminGet(t, srv.Addr(), "/debug/trace?qid=anything", http.StatusNotFound)
}

package wire

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/racetest"
	"fusionq/internal/workload"
)

// TestQueryIDCorrelation sends a query-scoped request and checks the three
// places the query ID must surface: the server's structured log, the echoed
// response header, and the client-side wire span.
func TestQueryIDCorrelation(t *testing.T) {
	sc := workload.DMV()
	var (
		mu   sync.Mutex
		logs []string
	)
	reg := obs.NewRegistry()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const qid = "q-correlate-42"
	tr := obs.NewTrace()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: qid, Trace: tr})
	resp, err := cli.Do(ctx, Request{Op: OpSelect, Cond: cond.MustParse("V = 'dui'").String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != qid {
		t.Fatalf("response echoed qid %q, want %q", resp.QueryID, qid)
	}

	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "qid="+qid) {
		t.Fatalf("server log has no qid line:\n%s", joined)
	}
	if !strings.Contains(joined, "op=sq") || !strings.Contains(joined, "source=R1") {
		t.Fatalf("server log line incomplete:\n%s", joined)
	}

	// One wire span for the round trip, plus the server's grafted fragment
	// under it (the server advertises the fragment extension).
	spans := tr.Export()
	if len(spans) != 2 {
		t.Fatalf("client recorded %d spans, want 2 (wire + grafted server fragment): %+v", len(spans), spans)
	}
	if spans[0].Kind != obs.KindWire || spans[0].QueryID != qid {
		t.Fatalf("wire span = %+v", spans[0])
	}
	if spans[1].Kind != obs.KindServer || spans[1].Parent != spans[0].ID || spans[1].QueryID != qid {
		t.Fatalf("server fragment span = %+v, want kind=server parent=%d qid=%s", spans[1], spans[0].ID, qid)
	}
	if !spans[1].Finished {
		t.Fatalf("grafted fragment span not finished: %+v", spans[1])
	}

	if got := reg.Counter(obs.MWireRequests, "op", OpSelect).Value(); got != 1 {
		t.Fatalf("fq_wire_requests_total{op=sq} = %d, want 1", got)
	}
	// The Dial's meta exchange is also a wire request, so the histogram has
	// at least two observations (meta + sq).
	if got := reg.Histogram(obs.MWireSeconds).Count(); got < 2 {
		t.Fatalf("fq_wire_request_seconds count = %d, want >= 2", got)
	}
	if text := reg.PrometheusText(); !strings.Contains(text, "fq_wire_request_seconds_bucket") {
		t.Fatalf("wire latency histogram missing from exposition:\n%s", text)
	}
}

// TestQueryIDAbsentOutsideQuery checks that anonymous requests (no Obs in
// the context) carry no qid and produce no correlation log line.
func TestQueryIDAbsentOutsideQuery(t *testing.T) {
	sc := workload.DMV()
	var (
		mu   sync.Mutex
		logs []string
	)
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Do(context.Background(), Request{Op: OpSelect, Cond: cond.MustParse("V = 'dui'").String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != "" {
		t.Fatalf("anonymous request echoed qid %q", resp.QueryID)
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if strings.Contains(joined, "qid=") {
		t.Fatalf("anonymous request logged a qid line:\n%s", joined)
	}
}

// TestCorrelationLineAllocs: a request's correlation line reads as it
// always has, and handing it to a log that discards it allocates once.
func TestCorrelationLineAllocs(t *testing.T) {
	var logged string
	srv := &Server{src: workload.DMV().Sources[0], cfg: Config{Logf: func(format string, args ...interface{}) {
		logged = fmt.Sprintf(format, args...)
	}}}
	req := Request{Op: OpSelect, QueryID: "q-42"}
	elapsed := 1234567 * time.Nanosecond
	for _, errText := range []string{"", `cond "x": bad`} {
		status := "ok"
		if errText != "" {
			status = fmt.Sprintf("error=%q", errText)
		}
		want := fmt.Sprintf("wire: qid=%s op=%s source=%s elapsed=%s %s", req.QueryID, req.Op, srv.src.Name(), elapsed.Round(time.Microsecond), status)
		if srv.logRequest(req, elapsed, errText); logged != want {
			t.Errorf("logged %q, want %q", logged, want)
		}
	}
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	srv.cfg.Logf = func(string, ...interface{}) {}
	if allocs := testing.AllocsPerRun(100, func() { srv.logRequest(req, elapsed, "") }); allocs > 1 {
		t.Errorf("a correlation line costs %v allocations, want at most 1", allocs)
	}
}

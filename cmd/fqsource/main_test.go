package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/wire"
)

func writeCSV(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "dmv.csv")
	data := "L,V,D\nJ55,dui,1993\nT21,sp,1994\nT80,dui,1993\n"
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStartServesRelation(t *testing.T) {
	srv, _, err := start(writeCSV(t), "", "", "127.0.0.1:0", "native", "")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	cli, err := wire.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Name() != "dmv" {
		t.Fatalf("name = %q, want file basename", cli.Name())
	}
	got, err := cli.Select(context.Background(), cond.MustParse("V = 'dui'"))
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T80"); !got.Equal(want) {
		t.Fatalf("remote sq = %v, want %v", got, want)
	}
}

func TestStartCapabilityTiers(t *testing.T) {
	csv := writeCSV(t)
	for tier, wantNative := range map[string]bool{"native": true, "bindings": false, "none": false} {
		srv, _, err := start(csv, "s-"+tier, "", "127.0.0.1:0", tier, "")
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		cli, err := wire.DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if cli.Caps().NativeSemijoin != wantNative {
			t.Errorf("%s: native = %v", tier, cli.Caps().NativeSemijoin)
		}
		cli.Close()
		srv.Close()
	}
}

// TestStartWithAdmin checks the -admin listener: after a query-scoped
// request, the Prometheus scrape covers the canonical vocabulary (query and
// retry counters, a latency histogram) and carries live wire series.
func TestStartWithAdmin(t *testing.T) {
	srv, admin, err := start(writeCSV(t), "", "", "127.0.0.1:0", "native", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	defer admin.Close()

	cli, err := wire.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: obs.NewQueryID()})
	if _, err := cli.Select(ctx, cond.MustParse("V = 'dui'")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + admin.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		// Live series from the meta + sq requests just served.
		`fq_wire_requests_total{op="sq"} 1`,
		`fq_wire_request_seconds_bucket{le="+Inf"} 2`,
		// Vocabulary headers rendered even without local series.
		"# TYPE fq_queries_total counter",
		"# TYPE fq_retries_total counter",
		"# TYPE fq_step_errors_total counter",
		"# TYPE fq_query_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("scrape was:\n%s", text)
	}
}

func TestStartErrors(t *testing.T) {
	if _, _, err := start("", "", "", "127.0.0.1:0", "native", ""); err == nil {
		t.Error("missing csv should fail")
	}
	if _, _, err := start("/nonexistent.csv", "", "", "127.0.0.1:0", "native", ""); err == nil {
		t.Error("missing file should fail")
	}
	if _, _, err := start(writeCSV(t), "", "", "127.0.0.1:0", "wizard", ""); err == nil {
		t.Error("bad caps should fail")
	}
	if _, _, err := start(writeCSV(t), "", "", "256.256.256.256:0", "native", ""); err == nil {
		t.Error("bad address should fail")
	}
}

// TestQueryCorrelationAcrossTwoServers is the end-to-end observability
// check: one mediator query against two wire-backed fqsource servers must
// produce a single trace in which every source-exchange span carries the
// query's ID — and the same ID must appear in both servers' wire logs, so
// the mediator trace and the fqsource logs can be joined offline.
func TestQueryCorrelationAcrossTwoServers(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"s1.csv": "L,V,D\nJ55,dui,1993\nT21,sp,1994\nT80,dui,1993\n",
		"s2.csv": "L,V,D\nT21,dui,1996\nJ55,sp,1996\nT11,sp,1993\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var servers []*wire.Server
	for _, name := range []string{"s1", "s2"} {
		srv, _, err := start(filepath.Join(dir, name+".csv"), name, "", "127.0.0.1:0", "native", "")
		if err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		defer srv.Close()
		servers = append(servers, srv)
	}

	// start wires the servers to the stdlib logger; capture it for the
	// duration of the query so the qid=... correlation lines are visible.
	var logBuf syncBuffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	var clients []*wire.Client
	for _, srv := range servers {
		cli, err := wire.DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clients = append(clients, cli)
	}
	m := core.New(clients[0].Schema())
	m.SetNetwork(netsim.NewNetwork(1))
	for _, cli := range clients {
		if err := m.AddSourceLink(cli, netsim.DefaultLink()); err != nil {
			t.Fatal(err)
		}
	}

	sql := "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
	ans, err := m.Query(t.Context(), sql, core.Options{Algorithm: "sja"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.QueryID == "" || ans.Trace == nil {
		t.Fatalf("answer missing observability: qid=%q trace=%v", ans.QueryID, ans.Trace)
	}

	// Mediator side: every exchange span belongs to this query.
	exchanges := 0
	for _, sp := range ans.Trace.Export() {
		if sp.Kind == obs.KindExchange {
			exchanges++
			if sp.QueryID != ans.QueryID {
				t.Errorf("exchange span %q has qid %q, want %q", sp.Name, sp.QueryID, ans.QueryID)
			}
		}
	}
	if exchanges == 0 {
		t.Fatal("trace has no exchange spans")
	}

	// Server side: both fqsource processes logged the same qid.
	logs := logBuf.String()
	for _, src := range []string{"s1", "s2"} {
		want := "wire: qid=" + ans.QueryID + " op="
		found := false
		for _, line := range strings.Split(logs, "\n") {
			if strings.Contains(line, want) && strings.Contains(line, "source="+src) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("server %s never logged qid %s; logs:\n%s", src, ans.QueryID, logs)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output from
// concurrent server connections.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

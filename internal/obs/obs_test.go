package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQueryIDsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewQueryID()
		if !strings.HasPrefix(id, "q-") {
			t.Fatalf("query id %q has no q- prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate query id %q", id)
		}
		seen[id] = true
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if From(ctx) == nil {
		t.Fatal("From on a bare context returned nil")
	}
	if QueryID(ctx) != "" {
		t.Fatalf("bare context has query id %q", QueryID(ctx))
	}
	o := &Obs{QueryID: "q-test-1", Trace: NewTrace(), Metrics: NewRegistry()}
	ctx = With(ctx, o)
	if From(ctx) != o {
		t.Fatal("From did not return the installed Obs")
	}
	if QueryID(ctx) != "q-test-1" {
		t.Fatalf("QueryID = %q", QueryID(ctx))
	}
	if Meter(ctx) != o.Metrics {
		t.Fatal("Meter did not return the installed registry")
	}
}

func TestSpanHierarchyAndExport(t *testing.T) {
	tr := NewTrace()
	ctx := With(context.Background(), &Obs{QueryID: "q-1", Trace: tr})
	ctx, root := StartSpan(ctx, KindQuery, "query")
	cctx, child := StartSpan(ctx, KindStep, "sq(c1, R1)")
	child.SetAttr(String("source", "R1"))
	_, grand := StartSpan(cctx, KindExchange, "sq")
	grand.End(errors.New("boom"))
	child.End(nil)
	root.End(nil)

	spans := tr.Export()
	if len(spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[0].Kind != KindQuery {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Parent != spans[1].ID {
		t.Fatalf("grandchild parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
	if spans[2].Error != "boom" {
		t.Fatalf("grandchild error = %q", spans[2].Error)
	}
	if spans[1].Attrs["source"] != "R1" {
		t.Fatalf("child attrs = %v", spans[1].Attrs)
	}
	for _, sp := range spans {
		if sp.QueryID != "q-1" {
			t.Fatalf("span %d query id = %q", sp.ID, sp.QueryID)
		}
	}
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []SpanData
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
}

func TestSpansNoopWithoutTrace(t *testing.T) {
	bare := context.Background()
	ctx, sp := StartSpan(bare, KindStep, "nothing")
	if sp != nil || ctx != bare {
		t.Fatal("expected a nil span and the same context without a trace")
	}
	// All methods must be nil-safe.
	sp.SetAttr(String("k", "v"))
	sp.End(nil)
	if got := sp.Snapshot(); got.ID != 0 {
		t.Fatalf("nil span snapshot = %+v", got)
	}
	if sp.Graft(KindServer, "frag", time.Millisecond) != nil {
		t.Fatal("a nil span grafted a child")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Describe("fq_test_total", "test counter")
	c := r.Counter("fq_test_total", "source", "R1")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Same name+labels yields the same series.
	if got := r.Counter("fq_test_total", "source", "R1").Value(); got != 3 {
		t.Fatalf("re-looked-up counter = %d, want 3", got)
	}
	// Different labels are a different series.
	if got := r.Counter("fq_test_total", "source", "R2").Value(); got != 0 {
		t.Fatalf("other series = %d, want 0", got)
	}

	g := r.Gauge("fq_test_gauge")
	g.Set(5)
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	h := r.Histogram("fq_test_seconds")
	h.Observe(0.003)
	h.ObserveDuration(200 * time.Millisecond)
	h.Observe(99) // lands in +Inf
	if got := h.Count(); got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}

	text := r.PrometheusText()
	for _, want := range []string{
		"# HELP fq_test_total test counter",
		"# TYPE fq_test_total counter",
		`fq_test_total{source="R1"} 3`,
		"# TYPE fq_test_gauge gauge",
		"fq_test_gauge 4",
		"# TYPE fq_test_seconds histogram",
		`fq_test_seconds_bucket{le="0.005"} 1`,
		`fq_test_seconds_bucket{le="+Inf"} 3`,
		"fq_test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestInstrumentLookupAllocs: looking up a series that exists allocates
// nothing, whatever order its labels come in, and the normalization it skips
// allocating for still holds: pair order does not matter, an odd trailing
// key reads as an empty value, and values that could run together do not.
func TestInstrumentLookupAllocs(t *testing.T) {
	r := NewRegistry()
	op := "sq" // a value the compiler cannot fold into a constant slice
	for name, lookup := range map[string]func() Counter{
		"no labels":   func() Counter { return r.Counter("fq_a_total") },
		"one pair":    func() Counter { return r.Counter("fq_b_total", "op", op) },
		"two pairs":   func() Counter { return r.Counter("fq_c_total", "source", "R1", "op", op) },
		"odd trailer": func() Counter { return r.Counter("fq_d_total", "op", op, "source") },
	} {
		lookup().Inc() // the first sighting creates the series
		if allocs := testing.AllocsPerRun(100, func() { lookup().Inc() }); allocs != 0 {
			t.Errorf("%s: a lookup that hits allocates %.0f times, want 0", name, allocs)
		}
		if got := lookup().Value(); got != 102 {
			t.Errorf("%s: the lookups reached a series holding %d, want 102", name, got)
		}
	}
	h := r.Histogram("fq_e_seconds", "op", op)
	if allocs := testing.AllocsPerRun(100, func() { r.Histogram("fq_e_seconds", "op", op).Observe(1) }); allocs != 0 {
		t.Errorf("a histogram lookup that hits allocates %.0f times, want 0", allocs)
	}
	if h.Count() != 101 {
		t.Errorf("histogram count = %d, want 101", h.Count())
	}

	r.Counter("fq_c_total", "op", op, "source", "R1").Inc()
	if got := r.Counter("fq_c_total", "source", "R1", "op", op).Value(); got != 103 {
		t.Errorf("pairs in another order reached a series holding %d, want 103", got)
	}
	if got := r.Counter("fq_d_total", "source", "", "op", op).Value(); got != 102 {
		t.Errorf("an explicit empty value reached a series holding %d, want the odd trailer's 102", got)
	}
	r.Counter("fq_f_total", "a", "1", "b", "2").Inc()
	for _, labels := range [][]string{{"a", "1b2"}, {"a", "1", "b", ""}, {"a1", "b2"}, {"a", `1",b="2`}} {
		if got := r.Counter("fq_f_total", labels...).Value(); got != 0 {
			t.Errorf("labels %q reached another series (value %d)", labels, got)
		}
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Describe("x", "y")
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	if r.PrometheusText() != "" {
		t.Fatal("nil registry rendered text")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("fq_conc_total", "worker", fmt.Sprint(w%2)).Inc()
				r.Gauge("fq_conc_gauge").Add(1)
				r.Histogram("fq_conc_seconds").Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	total := r.Counter("fq_conc_total", "worker", "0").Value() + r.Counter("fq_conc_total", "worker", "1").Value()
	if total != 1600 {
		t.Fatalf("concurrent counter total = %d, want 1600", total)
	}
	if got := r.Histogram("fq_conc_seconds").Count(); got != 1600 {
		t.Fatalf("concurrent histogram count = %d, want 1600", got)
	}
}

func TestAdminServerServesMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Describe("fq_admin_total", "admin test")
	reg.Counter("fq_admin_total").Add(7)
	srv, err := ServeAdminConfig("127.0.0.1:0", AdminConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if text := get("/metrics"); !strings.Contains(text, "fq_admin_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", text)
	}
	var fams []MetricFamily
	if err := json.Unmarshal([]byte(get("/metrics.json")), &fams); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if len(fams) != 1 || fams[0].Name != "fq_admin_total" {
		t.Fatalf("unexpected families: %+v", fams)
	}
	if !strings.Contains(get("/healthz"), "ok") {
		t.Fatal("/healthz not ok")
	}
}

// TestAdminServerResponseShape pins the HTTP contract of the admin endpoints:
// status codes and explicit Content-Type headers, so scrapers and probes can
// dispatch on the header instead of sniffing bodies.
func TestAdminServerResponseShape(t *testing.T) {
	reg := NewRegistry()
	DescribeAll(reg) // header-only families are enough to give every body content
	srv, err := ServeAdminConfig("127.0.0.1:0", AdminConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	runtime.GC() // so the runtime has measured a live heap

	cases := []struct {
		path        string
		contentType string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/debug/runtime", "application/json"},
		{"/debug/pprof/", "text/html; charset=utf-8"},
		{"/debug/pprof/goroutine?debug=1", "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		resp, err := http.Get("http://" + srv.Addr() + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Errorf("GET %s: Content-Type %q, want %q", tc.path, got, tc.contentType)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", tc.path)
		}
		if tc.path == "/debug/runtime" {
			var h RuntimeHealth
			if err := json.Unmarshal(body, &h); err != nil {
				t.Errorf("GET %s: %v", tc.path, err)
			}
			// A live process has a heap, a goal above it and goroutines; a
			// share is a fraction and a percentile is ordered.
			if h.LiveHeapBytes == 0 || h.HeapGoalBytes < h.LiveHeapBytes || h.Goroutines == 0 ||
				h.GCCPUShare < 0 || h.GCCPUShare > 1 || h.GCPauseP99US < h.GCPauseP50US {
				t.Errorf("GET %s: implausible summary %s", tc.path, body)
			}
		}
	}
}

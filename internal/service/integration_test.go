package service_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/service"
	"fusionq/internal/workload"
)

// refAnswer computes a condition set's ground truth directly from the
// scenario's raw relations (Section 2.1 semantics: each condition may be
// witnessed at a different source), sharing no code with the engine under
// test.
func refAnswer(t *testing.T, sc *workload.Scenario, condTexts []string) []string {
	t.Helper()
	conds := make([]cond.Cond, len(condTexts))
	for i, s := range condTexts {
		c, err := cond.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%s): %v", s, err)
		}
		conds[i] = c
	}
	witnessed := make([]map[string]bool, len(conds))
	for i := range witnessed {
		witnessed[i] = map[string]bool{}
	}
	for _, rel := range sc.Relations {
		schema := rel.Schema()
		mi := schema.MergeIndex()
		for _, tup := range rel.Rows() {
			item := tup[mi].Raw()
			for i, c := range conds {
				ok, err := c.Eval(schema, tup)
				if err != nil {
					t.Fatalf("Eval(%s): %v", c, err)
				}
				if ok {
					witnessed[i][item] = true
				}
			}
		}
	}
	var out []string
	for item := range witnessed[0] {
		all := true
		for i := 1; i < len(conds); i++ {
			if !witnessed[i][item] {
				all = false
			}
		}
		if all {
			out = append(out, item)
		}
	}
	sort.Strings(out)
	return out
}

// serveDMV starts an in-process fqd over the Figure 1 scenario and returns
// the scenario, server, engine and metrics registry.
func serveDMV(t *testing.T, admission service.AdmissionConfig) (*workload.Scenario, *service.Server, *obs.Registry) {
	t.Helper()
	sc := workload.DMV()
	m := core.New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(11))
	link := netsim.Link{Latency: 2 * time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: time.Millisecond}
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatalf("AddSourceLink: %v", err)
		}
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	eng := service.NewEngine(m, service.Config{
		Admission: admission,
		Metrics:   reg,
		Answers:   service.AnswerCacheConfig{TTL: time.Minute},
	})
	srv, err := service.Serve(eng, "127.0.0.1:0", service.ServerConfig{
		Metrics: reg,
		Logf:    func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return sc, srv, reg
}

// TestServiceConcurrentTenants fires mixed streaming/materialized queries
// from many tenants at an in-process fqd over TCP and asserts every
// admitted answer equals the reference answer computed from the raw
// relations. Run under -race in CI, this is the service's concurrency
// contract test.
func TestServiceConcurrentTenants(t *testing.T) {
	sc, srv, reg := serveDMV(t, service.AdmissionConfig{MaxInflight: 4, MaxQueue: 64})

	mix := [][]string{
		{`V = 'dui'`, `V = 'sp'`},
		{`V = 'dui'`},
		{`V = 'sp'`, `D >= 1990`},
		{`V = 'dui'`, `D >= 1993`, `V = 'sp'`},
	}
	want := make([][]string, len(mix))
	for i, conds := range mix {
		want[i] = refAnswer(t, sc, conds)
	}
	if len(want[0]) == 0 {
		t.Fatal("reference answer empty; the mix exercises nothing")
	}

	const (
		workers    = 8
		perWorker  = 25
		numTenants = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			cl, err := service.DialService(ctx, srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if w%2 == 0 {
				cl.Chunk = 2 // exercise chunked answer reassembly
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				q := rng.Intn(len(mix))
				tenant := fmt.Sprintf("t%d", rng.Intn(numTenants))
				reply, err := cl.Query(ctx, tenant, mix[q], rng.Intn(2) == 0)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				got := append([]string(nil), reply.Items...)
				sort.Strings(got)
				if len(got) != len(want[q]) {
					errs <- fmt.Errorf("worker %d query %d: %v, want %v", w, i, got, want[q])
					return
				}
				for j := range got {
					if got[j] != want[q][j] {
						errs <- fmt.Errorf("worker %d query %d: %v, want %v", w, i, got, want[q])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var admitted int64
	for _, tenant := range reg.LabelValues(obs.MAdmitted, "tenant") {
		admitted += reg.Counter(obs.MAdmitted, "tenant", tenant).Value()
	}
	if admitted != workers*perWorker {
		t.Fatalf("admitted = %d, want %d (no quota configured, queue deep enough — nothing may shed)", admitted, workers*perWorker)
	}
	if hits := reg.Counter(obs.MAnswerCacheHits).Value(); hits == 0 {
		t.Fatal("no answer-cache hits across repeated queries")
	}
}

// TestServiceQuotaIsolation pins the multi-tenant fairness contract: a hog
// tenant hammering the service is shed by its own token bucket (with the
// typed rejection surviving the wire round trip) while a victim tenant
// inside its rate is never shed.
func TestServiceQuotaIsolation(t *testing.T) {
	_, srv, reg := serveDMV(t, service.AdmissionConfig{
		MaxInflight: 8,
		MaxQueue:    64,
		TenantRate:  50,
		TenantBurst: 5,
	})
	conds := []string{`V = 'dui'`, `V = 'sp'`}
	ctx := context.Background()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var hogShed, hogAnswered, hogOther int
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := service.DialService(ctx, srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				_, err := cl.Query(ctx, "hog", conds, false)
				var shed *service.ShedError
				mu.Lock()
				switch {
				case err == nil:
					hogAnswered++
				case errors.As(err, &shed):
					if shed.Reason != service.ShedQuota {
						t.Errorf("hog shed with reason %s, want quota", shed.Reason)
					}
					hogShed++
				default:
					hogOther++
					t.Errorf("hog query failed untyped: %v", err)
				}
				mu.Unlock()
			}
		}()
	}

	victim, err := service.DialService(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer victim.Close()
	for i := 0; i < 10; i++ {
		if _, err := victim.Query(ctx, "victim", conds, false); err != nil {
			t.Fatalf("victim query %d rejected: %v — a hog tenant starved another tenant", i, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	wg.Wait()

	if hogShed == 0 {
		t.Fatalf("hog was never shed (answered %d) — quotas are not enforcing", hogAnswered)
	}
	if hogAnswered == 0 {
		t.Fatal("hog never answered — the bucket's burst allowance is not admitting")
	}
	if got := reg.Counter(obs.MShed, "tenant", "victim", "reason", string(service.ShedQuota)).Value(); got != 0 {
		t.Fatalf("victim shed %d times by quota despite staying under its rate", got)
	}
	if got := reg.Counter(obs.MAdmitted, "tenant", "victim").Value(); got != 10 {
		t.Fatalf("victim admitted %d, want 10", got)
	}
}

// TestServiceShutdownDrains pins the drain semantics end to end: Shutdown
// sheds new queries with the draining reason and completes once in-flight
// work is done.
func TestServiceShutdownDrains(t *testing.T) {
	_, srv, _ := serveDMV(t, service.AdmissionConfig{MaxInflight: 2})
	ctx := context.Background()
	cl, err := service.DialService(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Query(ctx, "a", []string{`V = 'dui'`}, false); err != nil {
		t.Fatalf("pre-shutdown query: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener is gone and live connections were nudged closed; a new
	// query fails at the transport (or, if it races a still-open handler,
	// with the typed draining rejection). Either way: no silent success.
	if _, err := cl.Query(ctx, "a", []string{`V = 'dui'`}, false); err == nil {
		t.Fatal("query succeeded after shutdown")
	}
}

// TestClientRepliesAreTheCallers: a service client's reply is its caller's
// to keep. The items of an unchunked reply, and of a chunked one (Chunk 1:
// the two-item answer in two frames), still read the same after later
// queries on the same client. A reply left aliasing a frame buffer given
// back to the pool would read cleared items, or under -race set.Recycled,
// or a later answer's.
func TestClientRepliesAreTheCallers(t *testing.T) {
	sc, srv, _ := serveDMV(t, service.AdmissionConfig{MaxInflight: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := service.DialService(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	query := func(chunk int, conds ...string) []string {
		t.Helper()
		cl.Chunk = chunk
		reply, err := cl.Query(ctx, "a", conds, false)
		if err != nil {
			t.Fatalf("query %v (chunk %d): %v", conds, chunk, err)
		}
		return reply.Items
	}
	conds := []string{`V = 'dui'`, `V = 'sp'`}
	want := fmt.Sprint(refAnswer(t, sc, conds))
	kept := [][]string{query(0, conds...), query(1, conds...)}
	for i := 0; i < 3; i++ {
		for _, chunk := range []int{0, 1} {
			query(chunk, `V = 'dui'`)
			query(chunk, `V = 'sp'`, `D >= 1990`)
		}
	}
	for i, items := range kept {
		if got := fmt.Sprint(items); got != want {
			t.Errorf("reply %d reads %s after later queries, want %s", i, got, want)
		}
	}
}

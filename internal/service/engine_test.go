package service

import (
	"context"
	"testing"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// dmvEngine assembles an engine over the Figure 1 scenario.
func dmvEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	sc := workload.DMV()
	m := core.New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(7))
	link := netsim.Link{Latency: 2 * time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: time.Millisecond}
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatalf("AddSourceLink: %v", err)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m.SetMetrics(cfg.Metrics)
	return NewEngine(m, cfg)
}

// TestEngineCacheLadder walks one query through the service's resolution
// ladder: fresh plan, then plan-cache hit, then answer-cache hit — and
// roster churn resetting all of it.
func TestEngineCacheLadder(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{TTL: time.Minute},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q1: %v", err)
	}
	if r1.PlanCached || r1.AnswerCached {
		t.Fatalf("q1 cached (plan=%v answer=%v), want fresh", r1.PlanCached, r1.AnswerCached)
	}
	want := r1.Answer.Items
	if want.Len() == 0 {
		t.Fatal("q1 answered nothing")
	}

	// The identical query is an answer-cache hit: nothing executes.
	r2, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q2: %v", err)
	}
	if !r2.AnswerCached {
		t.Fatal("q2 not served from the answer cache")
	}
	if !r2.Answer.Items.Equal(want) {
		t.Fatalf("q2 = %v, want %v", r2.Answer.Items.Slice(), want.Slice())
	}

	// Bump the epoch: the answer entry goes stale, but so does the plan —
	// both were built at the old roster generation — so q3 is fully fresh,
	// and q4 rides q3's re-cached plan.
	eng.Mediator().BumpEpoch()
	r3, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q3: %v", err)
	}
	if r3.PlanCached || r3.AnswerCached {
		t.Fatalf("q3 cached (plan=%v answer=%v) across an epoch bump", r3.PlanCached, r3.AnswerCached)
	}
	if !r3.Answer.Items.Equal(want) {
		t.Fatalf("q3 = %v, want %v", r3.Answer.Items.Slice(), want.Slice())
	}

	// q3 refilled the answer cache at the new epoch, so q4 is a hit again.
	// (The plan-cache leg of the ladder is pinned separately below with the
	// answer cache disabled — with it on, a repeat never reaches the plan.)
	if hits := reg.Counter(obs.MPlanCacheHits).Value(); hits != 0 {
		t.Fatalf("plan-cache hits = %d before any reuse, want 0", hits)
	}
	r4, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q4: %v", err)
	}
	if !r4.AnswerCached {
		t.Fatal("q4 not served from the answer cache")
	}
}

// TestEnginePlanCacheReuse pins the plan-cache path with the answer cache
// disabled: repeated queries reuse the optimized plan (skipping statistics
// gathering) and still answer correctly, in both execution modes.
func TestEnginePlanCacheReuse(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{MaxEntries: -1},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("q1: %v", err)
	}
	if r1.PlanCached {
		t.Fatal("q1 claims a plan-cache hit")
	}
	for i, stream := range []bool{false, true, true} {
		r, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds, Stream: stream})
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if !r.PlanCached || r.AnswerCached {
			t.Fatalf("repeat %d: plan=%v answer=%v, want plan-cache hit", i, r.PlanCached, r.AnswerCached)
		}
		if !r.Answer.Items.Equal(r1.Answer.Items) {
			t.Fatalf("repeat %d: %v, want %v", i, r.Answer.Items.Slice(), r1.Answer.Items.Slice())
		}
	}
	if hits := reg.Counter(obs.MPlanCacheHits).Value(); hits != 3 {
		t.Fatalf("plan-cache hits = %d, want 3", hits)
	}
	// Roster churn: removing a source moves the epoch; the cached plan is
	// invalidated, never served, and the re-planned query answers over the
	// survivors.
	name := eng.Mediator().SourceNames()[0]
	if !eng.Mediator().RemoveSource(name) {
		t.Fatalf("RemoveSource(%s) = false", name)
	}
	r5, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
	if err != nil {
		t.Fatalf("post-churn query: %v", err)
	}
	if r5.PlanCached {
		t.Fatal("stale plan served after roster churn")
	}
	if ev := reg.Counter(obs.MPlanCacheEvictions, "reason", "stale").Value(); ev == 0 {
		t.Fatal("no stale plan eviction charged after roster churn")
	}
}

// TestEngineRecordsQuery: a records query is planned, cached and repeated
// like any other, so the repeat is a plan-cache hit, but it neither reads nor
// fills the answer cache, which holds items only: both replies carry the
// records the second phase fetches for the answer.
func TestEngineRecordsQuery(t *testing.T) {
	reg := obs.NewRegistry()
	eng := dmvEngine(t, Config{
		Metrics: reg,
		Answers: AnswerCacheConfig{TTL: time.Minute},
		Options: core.Options{Records: true},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		r, err := eng.Query(ctx, Request{Tenant: "a", Conds: conds})
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		if r.AnswerCached || r.PlanCached != (i > 0) {
			t.Fatalf("query %d: plan=%v answer=%v, want a plan-cache hit on the repeat only", i+1, r.PlanCached, r.AnswerCached)
		}
		want, err := eng.Mediator().Fetch(ctx, r.Answer.Items)
		if err != nil {
			t.Fatal(err)
		}
		if r.Answer.Records == nil || r.Answer.Records.Len() != 5 || r.Answer.Records.Len() != want.Len() {
			t.Fatalf("query %d: records %v, the second phase fetches %d", i+1, r.Answer.Records, want.Len())
		}
	}
	hits, misses := reg.Counter(obs.MAnswerCacheHits).Value(), reg.Counter(obs.MAnswerCacheMisses).Value()
	if st := eng.AnswerCache().Stats(); st.Entries != 0 || hits+misses != 0 {
		t.Fatalf("answer cache %+v, %d hits, %d misses: a records query touched it", st, hits, misses)
	}
}

// TestEngineAdaptiveAlgorithm: the adaptive row answers through the engine
// like any row, and leaves nothing in the plan cache, because running its
// plan again would decide its rounds again.
func TestEngineAdaptiveAlgorithm(t *testing.T) {
	eng := dmvEngine(t, Config{
		Answers: AnswerCacheConfig{MaxEntries: -1},
		Options: core.Options{Algorithm: core.AlgoAdaptive},
	})
	conds, err := ParseConds([]string{`V = 'dui'`, `V = 'sp'`})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := eng.Query(context.Background(), Request{Tenant: "a", Conds: conds})
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		if want := set.New("J55", "T21"); !r.Answer.Items.Equal(want) || r.PlanCached {
			t.Fatalf("query %d: %v (plan cached %v), want %v fresh", i+1, r.Answer.Items, r.PlanCached, want)
		}
	}
}

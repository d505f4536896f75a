package oracle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/relation"
	"fusionq/internal/service"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// checkPlanCache is the plan-cache coherence sweep: the instance's sources
// go behind a real mediator and the service's epoch-keyed plan cache, and
// the sweep verifies the cache's three promises around scripted roster
// churn:
//
//   - plan-cache-coherence/warm: a same-epoch cached plan, executed through
//     core.QueryPlannedContext, returns exactly the reference answer — and
//     so does a fresh plan-and-execute run of the same query;
//   - plan-cache-coherence/churn: after the first source is removed from
//     the roster (the scripted churn event), the old-epoch entry is never
//     served, and executing the stale plan directly fails with
//     core.ErrStalePlan before any source traffic;
//   - plan-cache-coherence/post-churn: a re-planned, re-cached query at the
//     new epoch answers exactly the survivors-only reference, computed
//     naively from the remaining relations.
//
// Instances with a single source are skipped: churn would empty the roster
// and there would be no post-churn query to check.
func (d *Driver) checkPlanCache(ctx context.Context, ev *env) []Failure {
	if len(ev.sc.Sources) < 2 {
		return nil
	}
	infra := func(stage string, err error) []Failure {
		return []Failure{{Property: "exec-error", Class: "plan-cache", Mode: stage, Detail: err.Error()}}
	}
	m := core.New(ev.sc.Schema)
	m.SetNetwork(ev.network)
	m.SetMetrics(obs.NewRegistry())
	// The mediator instruments what it is given, so it gets the bare sources:
	// an instrumented one would be admitted twice on one link.
	for j, src := range ev.sc.Sources {
		if err := m.AddSource(src, ev.profiles[j]); err != nil {
			return infra("add-source", err)
		}
	}
	pc := service.NewPlanCache(8, obs.NewRegistry())
	conds := ev.sc.Conds
	key := service.QueryKey(conds, core.AlgoSJAPlus)
	opts := core.Options{}

	res, err := m.Plan(ctx, conds, opts)
	if err != nil {
		return infra("plan", err)
	}
	epoch := m.Epoch()
	pc.Put(key, epoch, res)

	var fs []Failure
	cached, ok := pc.Get(key, epoch)
	if !ok {
		return []Failure{{Property: "plan-cache-coherence", Mode: "warm", Detail: "same-epoch entry missed"}}
	}
	warm, err := m.QueryPlannedContext(ctx, conds, cached, opts)
	if err != nil {
		return append(fs, infra("warm-exec", err)...)
	}
	if !warm.Items.Equal(ev.ref) {
		fs = append(fs, Failure{Property: "answer-mismatch", Class: "plan-cache", Mode: "warm",
			Detail: answerDiff(warm.Items, ev.ref)})
	}
	fs = append(fs, stepIdentity(warm.Exec, "plan-cache", "warm")...)
	fresh, err := m.QueryCondsContext(ctx, conds, opts)
	if err != nil {
		return append(fs, infra("fresh-exec", err)...)
	}
	if !fresh.Items.Equal(ev.ref) {
		fs = append(fs, Failure{Property: "answer-mismatch", Class: "plan-cache", Mode: "fresh",
			Detail: answerDiff(fresh.Items, ev.ref)})
	}
	fs = append(fs, stepIdentity(fresh.Exec, "plan-cache", "fresh")...)

	// Scripted churn: the first source leaves the roster, moving the epoch.
	dead := ev.sc.SourceNames()[0]
	if !m.RemoveSource(dead) {
		return append(fs, infra("churn", fmt.Errorf("RemoveSource(%s) found nothing", dead))...)
	}
	if _, ok := pc.Get(key, m.Epoch()); ok {
		fs = append(fs, Failure{Property: "plan-cache-coherence", Mode: "churn",
			Detail: "stale-epoch plan served after roster churn"})
	}
	if _, err := m.QueryPlannedContext(ctx, conds, res, opts); !errors.Is(err, core.ErrStalePlan) {
		fs = append(fs, Failure{Property: "plan-cache-coherence", Mode: "churn",
			Detail: fmt.Sprintf("stale plan executed against the shrunk roster: err=%v, want core.ErrStalePlan", err)})
	}

	// Post-churn: re-plan, re-cache, and compare against the ground truth
	// of the surviving sources only.
	surv := &workload.Scenario{
		Schema:    ev.sc.Schema,
		Conds:     conds,
		Sources:   ev.sc.Sources[1:],
		Relations: ev.sc.Relations[1:],
	}
	survRef, err := ReferenceAnswer(surv)
	if err != nil {
		return append(fs, infra("post-churn-reference", err)...)
	}
	res2, err := m.Plan(ctx, conds, opts)
	if err != nil {
		return append(fs, infra("post-churn-plan", err)...)
	}
	pc.Put(key, m.Epoch(), res2)
	cached2, ok := pc.Get(key, m.Epoch())
	if !ok {
		return append(fs, Failure{Property: "plan-cache-coherence", Mode: "post-churn",
			Detail: "re-cached plan missed at its own epoch"})
	}
	after, err := m.QueryPlannedContext(ctx, conds, cached2, opts)
	if err != nil {
		return append(fs, infra("post-churn-exec", err)...)
	}
	if !after.Items.Equal(survRef) {
		fs = append(fs, Failure{Property: "answer-mismatch", Class: "plan-cache", Mode: "post-churn",
			Detail: answerDiff(after.Items, survRef)})
	}
	return append(fs, stepIdentity(after.Exec, "plan-cache", "post-churn")...)
}

// checkStaleCatalog is the stale-statistics case of the sweep: a mediator
// plans from summaries its catalog took of sources whose contents then move
// without the roster epoch moving — every source gains, for each of its
// tuples, a twin under an item no source had before. Plans are then chosen
// from cardinalities that are half the truth, and must still answer exactly
// the reference over the contents as they now are: statistics move cost,
// never answers.
func (d *Driver) checkStaleCatalog(ctx context.Context, ev *env) []Failure {
	infra := func(stage string, err error) []Failure {
		return []Failure{{Property: "exec-error", Class: "stale-catalog", Mode: stage, Detail: err.Error()}}
	}
	m := core.New(ev.sc.Schema)
	m.SetNetwork(ev.network)
	m.SetMetrics(obs.NewRegistry())
	// The sources are row stores over copies of the instance's relations,
	// so that an insert into a copy is a change of the source's contents.
	live := make([]*relation.Relation, len(ev.sc.Relations))
	for j, rel := range ev.sc.Relations {
		live[j] = relation.NewRelation(rel.Schema())
		for _, t := range rel.Rows() {
			if err := live[j].Insert(t); err != nil {
				return infra("copy", err)
			}
		}
		src := source.NewWrapper(ev.sc.Sources[j].Name(), source.NewRowBackend(live[j]), ev.sc.Sources[j].Caps())
		if err := m.AddSource(src, ev.profiles[j]); err != nil {
			return infra("add-source", err)
		}
	}
	conds := ev.sc.Conds
	var fs []Failure
	before, err := m.QueryCondsContext(ctx, conds, core.Options{})
	if err != nil {
		return infra("fresh-exec", err)
	}
	if !before.Items.Equal(ev.ref) {
		fs = append(fs, Failure{Property: "answer-mismatch", Class: "stale-catalog", Mode: "fresh",
			Detail: answerDiff(before.Items, ev.ref)})
	}

	// Nothing below touches the roster, so the epoch, and with it the
	// catalog, stays where the first query left it.
	mi := ev.sc.Schema.MergeIndex()
	for j, rel := range live {
		for i, t := range ev.sc.Relations[j].Rows() {
			twin := append(relation.Tuple(nil), t...)
			twin[mi] = relation.String(fmt.Sprintf("NEW%d-%s", (i+j)%2, t[mi].Raw()))
			if err := rel.Insert(twin); err != nil {
				return append(fs, infra("mutate", err)...)
			}
		}
	}
	ref, err := ReferenceAnswer(&workload.Scenario{Schema: ev.sc.Schema, Conds: conds, Relations: live})
	if err != nil {
		return append(fs, infra("stale-reference", err)...)
	}
	for _, opts := range []core.Options{{}, {Streaming: true}, {Algorithm: core.AlgoSJA}} {
		mode := fmt.Sprintf("stale/%s/stream=%v", opts.Algorithm, opts.Streaming)
		after, err := m.QueryCondsContext(ctx, conds, opts)
		if err != nil {
			return append(fs, infra(mode, err)...)
		}
		if !after.Items.Equal(ref) {
			fs = append(fs, Failure{Property: "answer-mismatch", Class: "stale-catalog", Mode: mode,
				Detail: answerDiff(after.Items, ref)})
		}
	}
	return fs
}

// catalogGuard bounds the one plan checkCatalogFill makes: behind its barrier
// a catalog that asks its sources one after another would wait for ever.
const catalogGuard = 10 * time.Second

// checkCatalogFill is the cold-catalog property. The instance's sources go
// behind a mediator under a layer that answers stats only once every source
// has been asked — a barrier, no clock — so a catalog that awaits one
// source's summary before asking the next never plans. What it plans must be
// what summaries taken one source after another give.
func (d *Driver) checkCatalogFill(ctx context.Context, ev *env) []Failure {
	fail := func(format string, args ...any) []Failure {
		return []Failure{{Property: "catalog-overlap", Detail: fmt.Sprintf(format, args...)}}
	}
	conds, n := ev.sc.Conds, len(ev.sc.Sources)
	var (
		mu    sync.Mutex
		asked int
		all   = make(chan struct{})
	)
	m := core.New(ev.sc.Schema)
	m.SetMetrics(obs.NewRegistry())
	sts := make([]stats.SourceStats, n)
	for j, src := range ev.sc.Sources {
		sum, err := source.Summarize(ctx, src)
		if err != nil {
			return fail("summary of %s: %v", src.Name(), err)
		}
		sts[j] = stats.StatsFromSummary(src.Name(), sum, conds)
		gate := source.Over(src, func(ctx context.Context, call source.Call) (source.Reply, error) {
			if call.Op == source.OpStats {
				mu.Lock()
				if asked++; asked == n {
					close(all)
				}
				mu.Unlock()
				select {
				case <-all:
				case <-ctx.Done():
					return source.Reply{}, fmt.Errorf("source %s: stats: %w", src.Name(), ctx.Err())
				}
			}
			return source.Do(ctx, src, call)
		})
		if err := m.AddSource(&gate, ev.profiles[j]); err != nil {
			return fail("add-source: %v", err)
		}
	}
	table, err := stats.Build(conds, sts, ev.profiles)
	if err != nil {
		return fail("statistics: %v", err)
	}
	want, err := optimizer.SJAPlus(&optimizer.Problem{Conds: conds, Sources: ev.sc.SourceNames(), Table: table})
	if err != nil {
		return fail("reference plan: %v", err)
	}
	gctx, cancel := context.WithTimeout(ctx, catalogGuard)
	defer cancel()
	got, err := m.Plan(gctx, conds, core.Options{})
	if err != nil {
		return fail("planning with every source's stats held until all %d were asked: %v", n, err)
	}
	if got.Cost != want.Cost || got.Plan.String() != want.Plan.String() {
		return fail("the overlapped catalog plans\n%s(cost %v), summaries taken in turn plan\n%s(cost %v)", got.Plan, got.Cost, want.Plan, want.Cost)
	}
	return nil
}

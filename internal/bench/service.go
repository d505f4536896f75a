package bench

import (
	"context"
	"fmt"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/service"
)

func init() {
	register(Experiment{ID: "E20", Title: "Multi-tenant service: planning from the statistics catalog vs a cached plan, and closed-loop load percentiles (tentpole)", Run: runE20})
}

// runE20 measures the fusion-query service's two headline numbers on a
// synthetic overlap deployment behind a real-time simulated network:
//
//  1. Planning cost: the same fusion query runs repeatedly against a cold
//     engine (plan cache disabled — every query plans) and against a warm
//     engine (plan cache on, primed once). Planning reads the mediator's
//     statistics catalog and asks no source, so all a cached plan saves is
//     the optimizer's tens of microseconds. Asserted, on the exact count:
//     the cold run issues exactly the source exchanges the warm run does.
//     The wall-clock means are reported beside it, not asserted.
//
//  2. Closed-loop load: cmd/fqload's RunLoad drives thousands of mixed
//     materialized/streaming queries from simulated tenants at a fully
//     configured engine (admission control, plan + answer caches) and
//     reports p50/p95/p99, mean and throughput — the numbers
//     BENCH_service.json publishes. Asserted: nothing sheds (no quotas,
//     queue deep enough), nothing errors, and both caches served hits.
func runE20(ctx context.Context) (*Table, error) {
	const (
		realScale = 0.2
		trials    = 12
		loadN     = 2000
	)
	deploy := service.DeployConfig{
		Scenario: "synth",
		Seed:     20,
		Sources:  4,
		Tuples:   80,
		Universe: 150,
		Conds:    3,
		RealTime: realScale,
	}
	t := &Table{
		ID: "E20", Title: fmt.Sprintf("fusion-query service: cold vs plan-cached planning, closed-loop load; synth 4x80, real-time scale %v", realScale),
		Columns: []string{"mode", "queries", "p50 ms", "p95 ms", "p99 ms", "mean ms", "qps", "shed", "plan hits", "answer hits"},
	}

	// Planning section. Both engines share one deployment (same data, same
	// simulated links, one statistics catalog); only the plan cache differs,
	// and the answer cache is off in both so every query actually executes.
	// One full-condition query is the probe; the warm engine is primed by one
	// unmeasured run, which also fills the catalog.
	reg := obs.NewRegistry()
	deploy.Metrics = reg
	dep, err := deploy.Build()
	if err != nil {
		return nil, err
	}
	// The section's exchanges are counted in its own registry, whatever
	// registry the caller's context carries for the run.
	pctx := obs.With(ctx, &obs.Obs{Metrics: reg})
	probe := service.LoadConfig{
		Tenants: 1,
		Workers: 1,
		Queries: trials,
		Mix:     dep.Mix()[len(dep.Scenario.Conds)-1 : len(dep.Scenario.Conds)], // the full condition list
		Seed:    20,
	}
	cold := service.NewEngine(dep.Mediator, service.Config{
		PlanEntries: -1,
		Answers:     service.AnswerCacheConfig{MaxEntries: -1},
		Metrics:     reg,
	})
	warm := service.NewEngine(dep.Mediator, service.Config{
		Answers: service.AnswerCacheConfig{MaxEntries: -1},
		Metrics: reg,
	})
	prime, err := service.ParseConds(probe.Mix[0])
	if err != nil {
		return nil, err
	}
	if _, err := warm.Query(pctx, service.Request{Tenant: "prime", Conds: prime}); err != nil {
		return nil, fmt.Errorf("E20: prime query: %w", err)
	}
	exchanges := func() int64 {
		var n int64
		for _, f := range reg.Snapshot() {
			if f.Name == obs.MExchangeSeconds {
				for _, p := range f.Points {
					n += p.Count
				}
			}
		}
		return n
	}
	before := exchanges()
	coldRep, err := service.RunLoad(pctx, service.EngineTarget{Engine: cold}, probe)
	if err != nil {
		return nil, fmt.Errorf("E20: cold run: %w", err)
	}
	coldExchanges := exchanges() - before
	warmRep, err := service.RunLoad(pctx, service.EngineTarget{Engine: warm}, probe)
	if err != nil {
		return nil, fmt.Errorf("E20: warm run: %w", err)
	}
	warmExchanges := exchanges() - before - coldExchanges
	if coldRep.Answered != trials || warmRep.Answered != trials {
		return nil, fmt.Errorf("E20: answered cold=%d warm=%d, want %d each", coldRep.Answered, warmRep.Answered, trials)
	}
	if warmRep.PlanCached != trials {
		return nil, fmt.Errorf("E20: warm run reused the plan %d/%d times", warmRep.PlanCached, trials)
	}
	if coldExchanges != warmExchanges || warmExchanges == 0 {
		return nil, fmt.Errorf("E20: %d cold queries issued %d source exchanges, the plan-cached ones %d: planning from a warm catalog must issue none",
			trials, coldExchanges, warmExchanges)
	}
	addLoadRow(t, "cold (no plan cache)", coldRep)
	addLoadRow(t, "warm (plan cached)", warmRep)

	// Load section: a fresh deployment with every service layer on, driven
	// closed-loop over the prefix/single-condition mix by 8 tenants.
	loadReg := obs.NewRegistry()
	ldeploy := deploy
	ldeploy.Metrics = loadReg
	ldep, err := ldeploy.Build()
	if err != nil {
		return nil, err
	}
	// The answer cache is kept smaller than the mix, so LRU churn keeps
	// forcing re-executions that land on the plan cache — the row then shows
	// both layers serving, whatever the run's wall clock.
	eng := service.NewEngine(ldep.Mediator, service.Config{
		Admission: service.AdmissionConfig{MaxInflight: 8, MaxQueue: 64},
		Answers:   service.AnswerCacheConfig{TTL: time.Minute, MaxEntries: 2},
		Metrics:   loadReg,
	})
	loadRep, err := service.RunLoad(ctx, service.EngineTarget{Engine: eng}, service.LoadConfig{
		Tenants:        8,
		Workers:        8,
		Queries:        loadN,
		Mix:            ldep.Mix(),
		StreamFraction: 0.3,
		Seed:           20,
	})
	if err != nil {
		return nil, fmt.Errorf("E20: load run: %w", err)
	}
	if loadRep.Shed != 0 || loadRep.Errors != 0 {
		return nil, fmt.Errorf("E20: load run shed %d, errored %d — with no quotas and a deep queue nothing may fail",
			loadRep.Shed, loadRep.Errors)
	}
	if loadRep.PlanCached == 0 || loadRep.AnswerCached == 0 {
		return nil, fmt.Errorf("E20: load run cache hits plan=%d answer=%d — the mix repeats, both caches must serve",
			loadRep.PlanCached, loadRep.AnswerCached)
	}
	addLoadRow(t, "closed-loop load", loadRep)

	t.Notes = append(t.Notes,
		"latencies are exact order statistics over per-query wall clocks (answered queries only), measured through service.RunLoad",
		"cold plans every query from the mediator's statistics catalog (no source traffic) and optimizes; warm reuses the epoch-validated cached plan",
		fmt.Sprintf("asserted: cold and warm issue the same source exchanges (%d over %d trials each); mean latency cold/warm measured %.2fx, not asserted",
			warmExchanges, trials, coldRep.Latency.Mean/warmRep.Latency.Mean),
		fmt.Sprintf("closed-loop: %d queries, 8 tenants, 8 workers, 30%% streaming; asserted zero shed/errors and hits from both caches", loadN),
	)
	return t, nil
}

// addLoadRow renders one RunLoad report as a table row.
func addLoadRow(t *Table, mode string, r *service.LoadReport) {
	t.AddRow(mode, r.Queries, r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Mean,
		r.ThroughputQPS, r.Shed, r.PlanCached, r.AnswerCached)
}

// Command fqd runs the multi-tenant fusion-query service: a long-lived
// mediator that answers fusion queries over the wire protocol with
// admission control, per-tenant quotas, a plan cache and a shared answer
// cache (DESIGN.md §16).
//
// Usage:
//
//	fqd -addr 127.0.0.1:7080 -scenario synth -sources 4 -realtime 0.2
//
// Flags:
//
//	-addr addr      listen address (default 127.0.0.1:7080)
//	-admin addr     serve /metrics, /metrics.json, /healthz and the flight
//	                recorder's /debug/* (queries, traces, trace?qid=,
//	                endpoints) here
//	-scenario s     dmv | synth (default dmv)
//	-sources n      synth: number of sources (default 4)
//	-tuples n       synth: tuples per source (default 80)
//	-universe n     synth: distinct entities drawn from (default 150)
//	-conds n        synth: number of conditions (default 3)
//	-seed n         data and network seed (default 1)
//	-realtime s     simulated exchanges take wall-clock time at scale s
//	                (0 disables; 1.0 = full simulated latency)
//	-algo a         optimization algorithm (default sja+)
//	-max-inflight n concurrently executing queries (default 8)
//	-queue n        waiters beyond that before shedding (default 2×inflight)
//	-rate r         per-tenant queries/sec quota (0 = no quotas)
//	-burst n        per-tenant burst allowance (default max(1, rate))
//	-plan-entries n plan-cache capacity (0 disables, default 256)
//	-answer-ttl d   answer-cache TTL (default 30s; 0 keeps the default,
//	                use -answer-entries 0 to disable the cache)
//	-answer-entries n  answer-cache entry bound (0 disables, default 1024)
//	-drain d        graceful-shutdown budget on SIGINT/SIGTERM (default 10s)
//
// The served data is a self-contained simulated deployment: the paper's
// Figure 1 DMV scenario or a seeded synthetic overlap workload, behind a
// simulated network whose per-source links have distinct latencies. With
// -realtime, exchanges take real wall-clock time, so cache hits and plan
// reuse show up as measurable latency differences: -admin's /metrics and
// cmd/fqtop show them, and service.DialService is the client to query with.
//
// On SIGINT or SIGTERM the server stops accepting queries (new arrivals
// are shed with the draining reason), waits up to -drain for in-flight
// queries, then exits. A second signal forces immediate shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/service"
)

// options collects the flag values; one struct keeps run/start signatures
// readable.
type options struct {
	addr, admin   string
	deploy        service.DeployConfig
	algo          string
	maxInflight   int
	queue         int
	rate          float64
	burst         float64
	planEntries   int
	answerTTL     time.Duration
	answerEntries int
	drain         time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7080", "listen address")
	flag.StringVar(&o.admin, "admin", "", "serve /metrics, /healthz and /debug/* on this address")
	flag.StringVar(&o.deploy.Scenario, "scenario", "dmv", "scenario: dmv | synth")
	flag.IntVar(&o.deploy.Sources, "sources", 0, "synth: number of sources")
	flag.IntVar(&o.deploy.Tuples, "tuples", 0, "synth: tuples per source")
	flag.IntVar(&o.deploy.Universe, "universe", 0, "synth: entity universe size")
	flag.IntVar(&o.deploy.Conds, "conds", 0, "synth: number of conditions")
	flag.Int64Var(&o.deploy.Seed, "seed", 1, "data and network seed")
	flag.Float64Var(&o.deploy.RealTime, "realtime", 0, "real-time scale for simulated exchanges (0 disables)")
	flag.StringVar(&o.algo, "algo", string(core.AlgoSJAPlus), "optimization algorithm")
	flag.IntVar(&o.maxInflight, "max-inflight", 8, "concurrently executing queries")
	flag.IntVar(&o.queue, "queue", 0, "admission queue depth (default 2×inflight)")
	flag.Float64Var(&o.rate, "rate", 0, "per-tenant queries/sec quota (0 = none)")
	flag.Float64Var(&o.burst, "burst", 0, "per-tenant burst allowance")
	flag.IntVar(&o.planEntries, "plan-entries", 256, "plan-cache capacity (0 disables)")
	flag.DurationVar(&o.answerTTL, "answer-ttl", 30*time.Second, "answer-cache TTL")
	flag.IntVar(&o.answerEntries, "answer-entries", 1024, "answer-cache entry bound (0 disables)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "fqd: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	srv, admin, err := start(o)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining; signal again to force shutdown")
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if admin != nil {
		_ = admin.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fqd: forced shutdown: %v\n", err)
	}
	return nil
}

// start builds the deployment and begins serving it; callers own both
// returned servers' lifetimes (the admin server is nil without -admin).
func start(o options) (*service.Server, *obs.AdminServer, error) {
	reg := obs.NewRegistry()
	o.deploy.Metrics = reg
	dep, err := o.deploy.Build()
	if err != nil {
		return nil, nil, err
	}
	// -plan-entries 0 and -answer-entries 0 disable their caches; the engine
	// reads 0 as the default capacity and a negative bound as off.
	if o.planEntries == 0 {
		o.planEntries = -1
	}
	if o.answerEntries == 0 {
		o.answerEntries = -1
	}
	eng := service.NewEngine(dep.Mediator, service.Config{
		Admission: service.AdmissionConfig{
			MaxInflight: o.maxInflight,
			MaxQueue:    o.queue,
			TenantRate:  o.rate,
			TenantBurst: o.burst,
		},
		PlanEntries: o.planEntries,
		Answers: service.AnswerCacheConfig{
			TTL:        o.answerTTL,
			MaxEntries: o.answerEntries,
		},
		Options: core.Options{Algorithm: core.Algorithm(o.algo)},
		Metrics: reg,
	})
	srv, err := service.Serve(eng, o.addr, service.ServerConfig{Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	var admin *obs.AdminServer
	if o.admin != "" {
		admin, err = obs.ServeAdminConfig(o.admin, obs.AdminConfig{
			Registry:   reg,
			Recorder:   dep.Mediator.Recorder(),
			Scorecards: func() any { return dep.Mediator.Scorecards() },
		})
		if err != nil {
			_ = srv.Close()
			return nil, nil, err
		}
		fmt.Printf("admin endpoints on http://%s (/metrics, /healthz, /debug/*)\n", admin.Addr())
	}
	fmt.Printf("fqd serving %s scenario (%d sources, %d conditions) on %s\n",
		o.deploy.Scenario, len(dep.Scenario.Sources), len(dep.Scenario.Conds), srv.Addr())
	return srv, admin, nil
}

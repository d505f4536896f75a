package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// exhaustiveGate bounds the brute-force plan count the per-instance
// exhaustive cross-check is willing to enumerate.
const exhaustiveGate = 5000

// realTimeScale converts simulated seconds to wall-clock seconds during the
// deadline sweep: small enough that a sweep costs milliseconds, large
// enough that a context deadline interrupts mid-exchange.
const realTimeScale = 0.05

// Driver checks generated instances against the oracle's properties.
// The zero value is the production configuration.
type Driver struct {
	// Mutate, when non-nil, corrupts the executed answer of plan class
	// MutateClass before comparison — a deliberate bug injection used by
	// the tests to prove the oracle actually catches answer divergence and
	// by the shrinker self-test. Never set outside tests.
	MutateClass string
	Mutate      func(set.Set) set.Set

	// Recorder, when non-nil, receives every plan execution as a flight-
	// recorder entry (Begin/End around each run, trace attached), so a soak
	// leaves a tail-retained artifact of what it executed — errors and slow
	// runs kept, boring runs sampled. cmd/fqoracle dumps it with -flight.
	Recorder *obs.Recorder
}

// env is one materialized instance: scenario, network, instrumented
// sources, cost table and reference answer.
type env struct {
	inst     Instance
	sc       *workload.Scenario
	network  *netsim.Network
	sources  []source.Source
	profiles []stats.SourceProfile
	pr       *optimizer.Problem
	ref      set.Set
}

// buildEnv materializes the instance. An error here means the instance
// could not even be constructed — an infrastructure problem, not a property
// violation.
func buildEnv(ctx context.Context, inst Instance) (*env, error) {
	sc, err := workload.Synth(inst.synthConfig())
	if err != nil {
		return nil, fmt.Errorf("oracle: synth: %w", err)
	}
	ref, err := ReferenceAnswer(sc)
	if err != nil {
		return nil, err
	}
	network := netsim.NewNetwork(inst.Seed + 1)
	srcs := make([]source.Source, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, raw := range sc.Sources {
		link := netsim.Link{
			Latency:         time.Duration(inst.LatencyUS[j]) * time.Microsecond,
			BytesPerSec:     1 << 20,
			RequestOverhead: 100 * time.Microsecond,
			MaxConns:        inst.MaxConns[j],
		}
		network.SetLink(raw.Name(), link)
		srcs[j] = source.Instrument(raw, network)
		// Items are the 8-byte "ID%06d" strings of the synthetic workload.
		prof := stats.ProfileFromLink(raw.Name(), link, 8, stats.SupportOf(raw.Caps()))
		if raw.Caps().BloomSemijoin {
			prof.BloomBitsPerItem = bloom.DefaultBitsPerItem
		}
		profiles[j] = prof
	}
	table, err := stats.BuildFromSources(ctx, sc.Conds, srcs, profiles)
	if err != nil {
		return nil, fmt.Errorf("oracle: stats: %w", err)
	}
	network.Reset()
	return &env{
		inst:     inst,
		sc:       sc,
		network:  network,
		sources:  srcs,
		profiles: profiles,
		pr:       &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table},
		ref:      ref,
	}, nil
}

// Check materializes the instance and verifies every oracle property,
// returning all violations found (empty means the instance passes). The
// returned error reports an infrastructure failure only.
func (d *Driver) Check(ctx context.Context, inst Instance) ([]Failure, error) {
	ev, err := buildEnv(ctx, inst)
	if err != nil {
		return nil, err
	}
	var fs []Failure

	// Phase 1: optimize every class and check the cost model.
	results := map[string]optimizer.Result{}
	for _, pc := range optimizer.Algorithms {
		r, err := pc.Plan(ev.pr)
		if err != nil {
			fs = append(fs, Failure{Property: "optimize-error", Class: pc.Name, Detail: err.Error()})
			continue
		}
		results[pc.Name] = r
	}
	fs = append(fs, checkCosts(ev, results)...)

	// Phases 2 and 3: execute every class under every scheduler, faultless, and
	// again retrieving the records: each class's plan under both record schedules,
	// one a scheduler (which gets which follows the seed). These runs must succeed
	// and agree with the reference — and therefore with each other — byte for byte
	// (the adaptive row by its own choice of rounds), and a records run must also
	// return exactly the records a second phase fetches for the reference answer.
	for k, mode := range execModes(inst) {
		records := []plan.Records{plan.FetchRecords, plan.FinalRecords}[(k+int(inst.Seed&1))%2]
		for _, pc := range optimizer.Algorithms {
			r, ok := results[pc.Name]
			if !ok {
				continue
			}
			fs = append(fs, d.runPlan(ctx, ev, ev.sources, pc.Name, r.Plan, mode)...)
			p := *r.Plan
			p.Records = records
			cls := pc.Name + "/" + records.String()
			fs = append(fs, d.check(ctx, ev, ev.sources, cls, mode, func(ctx context.Context, ex *exec.Executor) (*exec.Result, []Failure, error) {
				res, err := ex.Run(ctx, &p)
				if err != nil {
					return res, nil, err
				}
				return res, checkRecords(ctx, ev, cls, mode.mode, res.Records), nil
			})...)
		}
	}

	// Phase 5: the join-over-union baseline, memoized and not.
	fs = append(fs, d.checkJoinOverUnion(ctx, ev)...)

	// Phase 6: fault sweep — flaky sources with a retry budget, under each
	// scheduler.
	if inst.Faults {
		fs = append(fs, d.checkFaults(ctx, ev, results)...)
	}

	// Phase 7: deadline sweep — real-time exchanges under a tight context
	// deadline must yield an honestly-classified error or the exact answer.
	if inst.Deadline {
		fs = append(fs, d.checkDeadline(ctx, ev, results)...)
	}

	// Phase 8: replica churn sweep — the first source goes behind a
	// two-replica fabric logical and scripted churn kills one or both
	// replicas.
	if inst.Replicate {
		fs = append(fs, d.checkChurn(ctx, ev, results)...)
	}

	// Phase 9: wire trace-completeness sweep — the sources go behind real
	// loopback wire servers and every exchange must leave a grafted,
	// skew-normalized, byte-reconciled server fragment in the trace.
	if inst.WireTrace {
		fs = append(fs, d.checkWireTrace(ctx, ev, results)...)
	}

	// Phase 10: plan-cache coherence sweep — the sources go behind a real
	// mediator and the service's epoch-keyed plan cache; cached plans must
	// answer like fresh ones before and after scripted roster churn, and
	// stale plans must never be served or executed. Neither may a plan from
	// a statistics catalog gone stale answer wrongly.
	if inst.PlanCache {
		fs = append(fs, d.checkPlanCache(ctx, ev)...)
		fs = append(fs, d.checkStaleCatalog(ctx, ev)...)
	}

	// Phase 11: a cold statistics catalog asks every source at once and
	// plans what one filled source by source plans.
	fs = append(fs, d.checkCatalogFill(ctx, ev)...)

	// Phase 12, under phase 10's gate: the sources behind a real fqd over
	// loopback TCP, and every reply to four concurrent clients checked.
	if inst.PlanCache {
		fs = append(fs, d.checkService(ctx, ev)...)
	}
	return fs, nil
}

// checkCosts verifies the cost-model invariants over the optimized classes:
// algorithm bookkeeping equals the shared estimator, the dominance chain
// SJA ≤ {SJ, FILTER, greedy variants} and SJA+ ≤ SJA holds, and on small
// instances SJA matches the exhaustive optimum. rt-sja's Result.Cost is a
// response time and stands outside the chain; its plan must still compute
// the same answer.
func checkCosts(ev *env, results map[string]optimizer.Result) []Failure {
	var fs []Failure
	tol := func(x float64) float64 { return 1e-6 * (1 + math.Abs(x)) }

	for _, cls := range []string{"filter", "sj", "sja"} {
		r, ok := results[cls]
		if !ok {
			continue
		}
		est, err := plan.EstimateCost(r.Plan, ev.pr.Table)
		if err != nil {
			fs = append(fs, Failure{Property: "cost-bookkeeping", Class: cls, Detail: "estimator failed: " + err.Error()})
			continue
		}
		if math.Abs(est.Cost-r.Cost) > tol(r.Cost) {
			fs = append(fs, Failure{Property: "cost-bookkeeping", Class: cls,
				Detail: fmt.Sprintf("algorithm bookkeeping %v != estimator %v", r.Cost, est.Cost)})
		}
	}

	sja, haveSJA := results["sja"]
	if haveSJA {
		// SJA is optimal within the class containing FILTER, SJ and the
		// greedy (non-postoptimized) variants.
		for _, cls := range []string{"filter", "sj", "greedy-sj", "greedy-sja", "greedy-adaptive-sja"} {
			if r, ok := results[cls]; ok && sja.Cost > r.Cost+tol(r.Cost) {
				fs = append(fs, Failure{Property: "cost-dominance", Class: cls,
					Detail: fmt.Sprintf("sja cost %v exceeds %s cost %v", sja.Cost, cls, r.Cost)})
			}
		}
		if plus, ok := results["sja+"]; ok && plus.Cost > sja.Cost+tol(sja.Cost) {
			fs = append(fs, Failure{Property: "cost-dominance", Class: "sja+",
				Detail: fmt.Sprintf("sja+ cost %v exceeds sja cost %v", plus.Cost, sja.Cost)})
		}
	}
	if plus, ok := results["sja+"]; ok {
		if gplus, ok2 := results["greedy-sja+"]; ok2 && plus.Cost > gplus.Cost+tol(gplus.Cost) {
			fs = append(fs, Failure{Property: "cost-dominance", Class: "greedy-sja+",
				Detail: fmt.Sprintf("sja+ cost %v exceeds greedy-sja+ cost %v", plus.Cost, gplus.Cost)})
		}
	}

	// Exhaustive cross-check on small instances: the chosen SJA plan's cost
	// must match the brute-force optimum over every enumerated alternative.
	if haveSJA {
		m, n := len(ev.pr.Conds), len(ev.pr.Sources)
		count := 1.0
		for i := 2; i <= m; i++ {
			count *= float64(i)
		}
		count *= math.Pow(3, float64(n*(m-1)))
		if count <= exhaustiveGate {
			ex, err := optimizer.Exhaustive(ev.pr)
			if err != nil {
				fs = append(fs, Failure{Property: "optimize-error", Class: "exhaustive", Detail: err.Error()})
			} else if math.Abs(ex.Cost-sja.Cost) > tol(ex.Cost) {
				fs = append(fs, Failure{Property: "cost-dominance", Class: "exhaustive",
					Detail: fmt.Sprintf("sja cost %v != exhaustive optimum %v (ordering %v vs %v)", sja.Cost, ex.Cost, sja.Sketch.Ordering, ex.Sketch.Ordering)})
			}
		}
	}
	return fs
}

// execModes lists the ways the instance's plans are scheduled: overlapped
// rounds and the pipeline, the two schedulers the mediator runs.
// The batch size varies with the seed so tiny batches (many edges, heavy
// fan-out traffic) and large ones (single-batch degenerate case) are both
// exercised.
func execModes(inst Instance) []runOpts {
	return []runOpts{
		{mode: "par"},
		{mode: "stream", streaming: true, batch: streamBatch(inst)},
	}
}

// streamBatch is the instance's batch size for pipelined runs.
func streamBatch(inst Instance) int { return []int{4, 16, 64, 512}[int(inst.Seed&3)] }

// checkRecords compares a records run's records with what the second phase
// fetches for the reference answer: the same tuples, in any order.
func checkRecords(ctx context.Context, ev *env, cls, mode string, records *relation.Relation) []Failure {
	want, err := exec.FetchAnswer(ctx, ev.ref, ev.sc.Sources)
	if err != nil {
		return []Failure{{Property: "exec-error", Class: cls, Mode: mode, Detail: "reference fetch: " + err.Error()}}
	}
	lines := func(r *relation.Relation) []string {
		out := make([]string, 0, r.Len())
		for _, t := range r.Rows() {
			out = append(out, fmt.Sprint(t))
		}
		slices.Sort(out)
		return out
	}
	got, ref := lines(records), lines(want)
	if slices.Equal(got, ref) {
		return nil
	}
	return []Failure{{Property: "records-mismatch", Class: cls, Mode: mode,
		Detail: fmt.Sprintf("records run returned %d tuples, the second phase fetches %d", len(got), len(ref))}}
}

// runOpts configures one execution of one plan class.
type runOpts struct {
	mode      string
	streaming bool
	batch     int
	retries   int
	// allowErr classifies acceptable failures (fault and deadline sweeps).
	// Nil means the run must succeed.
	allowErr func(error) bool
}

// runPlan checks one execution of one plan through Executor.Run.
func (d *Driver) runPlan(ctx context.Context, ev *env, srcs []source.Source, cls string, p *plan.Plan, opts runOpts) []Failure {
	return d.check(ctx, ev, srcs, cls, opts, func(ctx context.Context, ex *exec.Executor) (*exec.Result, []Failure, error) {
		res, err := ex.Run(ctx, p)
		return res, nil, err
	})
}

// check makes one execution — run, through whichever executor entry point it
// wraps — with fresh observability state and checks every per-run property:
// answer equality (or honest partials), the accounting identities, and
// span/metric balance, plus whatever run itself found.
func (d *Driver) check(ctx context.Context, ev *env, srcs []source.Source, cls string, opts runOpts, run func(context.Context, *exec.Executor) (*exec.Result, []Failure, error)) []Failure {
	ev.network.Reset()
	o := &obs.Obs{QueryID: obs.NewQueryID(), Trace: obs.NewTrace(), Metrics: obs.NewRegistry()}
	o.Live = d.Recorder.Begin(o.QueryID, obs.Text(cls+" ["+opts.mode+"]"))
	rctx := obs.With(ctx, o)
	ex := &exec.Executor{
		Sources:   srcs,
		Network:   ev.network,
		Streaming: opts.streaming,
		BatchSize: opts.batch,
		Retries:   opts.retries,
	}
	res, fs, err := run(rctx, ex)
	d.Recorder.End(o.Live, obs.EndInfo{Err: err, Trace: o.Trace,
		Items: res.Answer.Len(), Hedges: res.Hedges, Failovers: res.Failovers})

	if err != nil {
		switch {
		case opts.allowErr == nil:
			fs = append(fs, Failure{Property: "exec-error", Class: cls, Mode: opts.mode, Detail: err.Error()})
		case !opts.allowErr(err):
			fs = append(fs, Failure{Property: "error-class", Class: cls, Mode: opts.mode,
				Detail: "unclassified failure: " + err.Error()})
		default:
			// Honest partial: a failed run may report the exact answer
			// (failure after the result was computed cannot happen — the
			// run would have succeeded — but the empty set is the honest
			// "no answer yet") and must never report a wrong non-empty one.
			if !res.Answer.IsEmpty() && !res.Answer.Equal(ev.ref) {
				fs = append(fs, Failure{Property: "partial-dishonest", Class: cls, Mode: opts.mode,
					Detail: fmt.Sprintf("failed run reported non-empty wrong answer (%d items, want %d): %v", res.Answer.Len(), ev.ref.Len(), err)})
			}
		}
	} else {
		got := res.Answer
		if d.Mutate != nil && cls == d.MutateClass {
			got = d.Mutate(got)
		}
		if !got.Equal(ev.ref) {
			fs = append(fs, Failure{Property: "answer-mismatch", Class: cls, Mode: opts.mode,
				Detail: answerDiff(got, ev.ref)})
		}
	}

	// Accounting identities hold for successful and failed runs alike: the
	// counters report the traffic actually paid for. The critical path of
	// overlapped exchanges can never exceed their summed work.
	if res.ResponseTime > res.TotalWork {
		fs = append(fs, Failure{Property: "par-response", Class: cls, Mode: opts.mode,
			Detail: fmt.Sprintf("overlapped response time %v exceeds total work %v", res.ResponseTime, res.TotalWork)})
	}
	fs = append(fs, stepIdentity(res, cls, opts.mode)...)
	if err == nil {
		// A successful run knows when its answer first existed, and its peak
		// memory accounting can never be below the answer it holds.
		if res.FirstAnswer <= 0 {
			fs = append(fs, Failure{Property: "first-answer", Class: cls, Mode: opts.mode,
				Detail: "successful run reported no first-answer latency"})
		}
		if res.PeakBytes < res.Answer.Bytes() {
			fs = append(fs, Failure{Property: "peak-accounting", Class: cls, Mode: opts.mode,
				Detail: fmt.Sprintf("peak bytes %d below answer bytes %d", res.PeakBytes, res.Answer.Bytes())})
		}
	}

	fs = append(fs, checkObsBalance(cls, opts.mode, res, o)...)
	return fs
}

// stepIdentity checks that a run's work is the work of its steps: each
// exchange is charged to the step that issued it, and to no other. Every run
// keeps its step trace, so this holds under every scheduler and through every
// entry point, the mediator's included.
func stepIdentity(res *exec.Result, cls, mode string) []Failure {
	var work time.Duration
	for _, tr := range res.Trace {
		work += tr.Elapsed
	}
	if work == res.TotalWork {
		return nil
	}
	return []Failure{{Property: "step-identity", Class: cls, Mode: mode,
		Detail: fmt.Sprintf("steps' elapsed times sum to %v, total work is %v", work, res.TotalWork)}}
}

// answerDiff summarizes how an executed answer diverges from the reference.
func answerDiff(got, want set.Set) string {
	missing := want.Diff(got)
	extra := got.Diff(want)
	return fmt.Sprintf("answer has %d items, reference %d; missing %s, extra %s",
		got.Len(), want.Len(), sample(missing), sample(extra))
}

// sample renders a set, eliding beyond 5 items.
func sample(s set.Set) string {
	if s.Len() <= 5 {
		return s.String()
	}
	return fmt.Sprintf("%v… (%d items)", set.New(s.Items()[:5]...), s.Len())
}

// checkObsBalance verifies zero span/metric imbalance: every started span
// ended, the per-source counter sums equal the executor's result counters,
// and the scheduler gauges drained back to zero.
func checkObsBalance(cls, mode string, res *exec.Result, o *obs.Obs) []Failure {
	var fs []Failure
	unfinished := 0
	for _, sp := range o.Trace.Export() {
		if !sp.Finished {
			unfinished++
		}
	}
	if unfinished > 0 {
		fs = append(fs, Failure{Property: "span-unfinished", Class: cls, Mode: mode,
			Detail: fmt.Sprintf("%d of %d spans never ended", unfinished, o.Trace.Len())})
	}
	snap := o.Metrics.Snapshot()
	for _, chk := range []struct {
		metric string
		want   int
	}{
		{obs.MSourceQueries, res.SourceQueries},
		{obs.MRetries, res.Retries},
	} {
		if got := metricSum(snap, chk.metric); got != int64(chk.want) {
			fs = append(fs, Failure{Property: "metric-imbalance", Class: cls, Mode: mode,
				Detail: fmt.Sprintf("%s sums to %d, result counter says %d", chk.metric, got, chk.want)})
		}
	}
	for _, gauge := range []string{obs.MSchedQueueDepth, obs.MSchedLaneOccupancy} {
		if got := metricSum(snap, gauge); got != 0 {
			fs = append(fs, Failure{Property: "gauge-leak", Class: cls, Mode: mode,
				Detail: fmt.Sprintf("%s left at %d after the run", gauge, got)})
		}
	}
	return fs
}

// metricSum totals a family's point values across all label sets.
func metricSum(snap []obs.MetricFamily, name string) int64 {
	var sum int64
	for _, f := range snap {
		if f.Name != name {
			continue
		}
		for _, p := range f.Points {
			sum += p.Value
		}
	}
	return sum
}

// mutated applies the corruption hook when the class matches.
func (d *Driver) mutated(cls string, answer set.Set) set.Set {
	if d.Mutate != nil && cls == d.MutateClass {
		return d.Mutate(answer)
	}
	return answer
}

// checkJoinOverUnion runs the Section 5 baseline — distribute the join over
// the union into n^m SPJ subqueries — with and without memoization. The
// baseline bypasses the scheduler's accounting, so only answer equality is
// checked.
func (d *Driver) checkJoinOverUnion(ctx context.Context, ev *env) []Failure {
	var fs []Failure
	for _, memoize := range []bool{false, true} {
		cls := "jou"
		if memoize {
			cls = "jou-memo"
		}
		ev.network.Reset()
		ex := &exec.Executor{Sources: ev.sources, Network: ev.network}
		res, err := ex.RunJoinOverUnion(ctx, ev.pr, memoize, 0)
		if err != nil {
			fs = append(fs, Failure{Property: "exec-error", Class: cls, Detail: err.Error()})
			continue
		}
		if got := d.mutated(cls, res.Answer); !got.Equal(ev.ref) {
			fs = append(fs, Failure{Property: "answer-mismatch", Class: cls, Detail: answerDiff(got, ev.ref)})
		}
	}
	return fs
}

// checkFaults reruns representative classes against flaky sources with a
// retry budget, under each scheduler on wrappers of its own. A run must
// either absorb the injected failures and return the exact answer, or fail
// with an honestly-classified error and no wrong partial answer. Concurrent
// steps draw the injected failures in no fixed order; the property does not
// depend on it.
func (d *Driver) checkFaults(ctx context.Context, ev *env, results map[string]optimizer.Result) []Failure {
	allow := func(err error) bool {
		return errors.Is(err, source.ErrTransient) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}
	var fs []Failure
	for k, opts := range []runOpts{
		{mode: "faults"},
		{mode: "stream-faults", streaming: true, batch: streamBatch(ev.inst)},
	} {
		flaky := make([]source.Source, len(ev.sources))
		for j, src := range ev.sources {
			flaky[j] = source.NewFlaky(src, ev.inst.FaultRate, ev.inst.Seed+int64(j)*7919+int64(k)*104729)
		}
		opts.retries, opts.allowErr = ev.inst.Retries+2, allow
		for _, cls := range []string{"filter", "sja+"} {
			if r, ok := results[cls]; ok {
				fs = append(fs, d.runPlan(ctx, ev, flaky, cls, r.Plan, opts)...)
			}
		}
	}
	return fs
}

// checkChurn rebuilds the roster with the first source behind a
// two-replica fabric logical and replays the filter plan — materialized and
// streaming — while scripted churn kills replicas at time zero. With a
// surviving replica the run must absorb the death (fabric failover for
// materialized exchanges, whole-stream retry for streaming ones) and return
// the exact answer; with every replica dead it must fail with a classified
// exhaustion or link-down error and never a wrong non-empty answer. No
// clock decides the outcome: the network is non-realtime, hedging is
// disabled, and a fresh logical's unobserved endpoints bound how often the
// dead replica can be picked before its breaker opens, however a round's
// exchanges interleave.
func (d *Driver) checkChurn(ctx context.Context, ev *env, results map[string]optimizer.Result) []Failure {
	r, ok := results["filter"]
	if !ok {
		return nil
	}
	name := ev.sources[0].Name()
	link := netsim.Link{
		Latency:         time.Duration(ev.inst.LatencyUS[0]) * time.Microsecond,
		BytesPerSec:     1 << 20,
		RequestOverhead: 100 * time.Microsecond,
		MaxConns:        ev.inst.MaxConns[0],
	}
	var eps []*fabric.Endpoint
	for _, suffix := range []string{"-a", "-b"} {
		rep := source.NewWrapper(name+suffix, source.NewRowBackend(ev.sc.Relations[0]), ev.sc.Sources[0].Caps())
		ev.network.SetLink(rep.Name(), link)
		eps = append(eps, fabric.NewEndpoint(source.Instrument(rep, ev.network), ev.inst.MaxConns[0]))
	}
	logical, err := fabric.NewLogical(name, eps, fabric.Options{NoSpeculation: true})
	if err != nil {
		return []Failure{{Property: "exec-error", Class: "filter", Mode: "churn", Detail: err.Error()}}
	}
	srcs := append([]source.Source(nil), ev.sources...)
	srcs[0] = logical

	events := []netsim.ChurnEvent{{At: 0, Source: eps[0].Name(), Kind: netsim.ChurnKill}}
	if ev.inst.ChurnKillAll {
		events = append(events, netsim.ChurnEvent{At: 0, Source: eps[1].Name(), Kind: netsim.ChurnKill})
	}
	ev.network.ScheduleChurn(events)
	defer ev.network.ScheduleChurn(nil)

	var allow func(error) bool
	if ev.inst.ChurnKillAll {
		allow = func(err error) bool {
			return errors.Is(err, fabric.ErrExhausted) || errors.Is(err, netsim.ErrDown)
		}
	}
	var fs []Failure
	fs = append(fs, d.runPlan(ctx, ev, srcs, "filter", r.Plan, runOpts{
		mode: "churn", retries: 1, allowErr: allow,
	})...)
	// Streaming: a stream that lands on a dead replica fails mid-stream and
	// recovers through the executor's whole-stream retry; the breaker's
	// failure threshold (3) bounds how many consecutive retries the dead
	// endpoint can absorb before selection converges on the survivor.
	fs = append(fs, d.runPlan(ctx, ev, srcs, "filter", r.Plan, runOpts{
		mode: "stream-churn", streaming: true, retries: 3, allowErr: allow,
	})...)
	return fs
}

// checkDeadline executes the SJA plan with real-time exchanges under a
// context deadline sized from the plan's own cost estimate, so both
// outcomes — completion and expiry — occur across instances. Either way the
// run must be honest: the exact answer, or a context-classified error.
func (d *Driver) checkDeadline(ctx context.Context, ev *env, results map[string]optimizer.Result) []Failure {
	r, ok := results["sja"]
	if !ok {
		return nil
	}
	frac := []float64{0.05, 0.2, 0.7, 2.0}[int(ev.inst.Seed&3)]
	timeout := time.Duration(frac * realTimeScale * r.Cost * float64(time.Second))
	if timeout < 200*time.Microsecond {
		timeout = 200 * time.Microsecond
	}
	if timeout > 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	ev.network.SetRealTime(realTimeScale)
	defer ev.network.SetRealTime(0)
	allow := func(err error) bool {
		return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	fs := d.runPlan(dctx, ev, ev.sources, "sja", r.Plan, runOpts{mode: "deadline", allowErr: allow})
	cancel()
	// The streaming pipeline must honor the same deadline honestly: exact
	// answer or a context-classified error, never a wrong partial.
	sctx, scancel := context.WithTimeout(ctx, timeout)
	defer scancel()
	fs = append(fs, d.runPlan(sctx, ev, ev.sources, "sja", r.Plan, runOpts{mode: "stream-deadline", streaming: true, allowErr: allow})...)
	return fs
}

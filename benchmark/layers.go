package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// tracedRun is what the staged replay of one workload produced.
type tracedRun struct {
	spans   []span
	samples map[string]map[int]float64
	// streamed says, per replayed query, whether its own mode is streaming.
	streamed map[int]bool
	// outcomes holds, by position in the measured sequence, the reply the
	// replay's client got over TCP, for the correctness gate.
	outcomes []outcome
	firstErr error
}

// runTraced builds the deployment of seed's instance with the span
// recorder on, warms it up as a measured round would be, and replays the
// first w.traced queries of the measured sequence stage by stage at
// concurrency 1.
func runTraced(ctx context.Context, w workloadSpec, seed int64) (*tracedRun, instance, error) {
	rec := newRecorder()
	tr := w.generate(seed)
	d, err := buildDeployment(ctx, w.deploy, w.engine, seed, rec)
	if err != nil {
		return nil, instance{}, err
	}
	defer d.close()
	cli, err := d.dial(ctx, w.chunk)
	if err != nil {
		return nil, instance{}, err
	}
	defer cli.close()
	for _, q := range tr.warm {
		if _, err := cli.query(ctx, q); err != nil {
			return nil, instance{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	t, err := newTracer(ctx, d, rec, w.chunk)
	if err != nil {
		return nil, instance{}, err
	}
	defer t.close()
	out := &tracedRun{samples: t.samples, streamed: map[int]bool{}}
	for qid, q := range tr.measured[:min(w.traced, len(tr.measured))] {
		out.streamed[qid] = q.stream
		got, err := t.replay(ctx, qid, q)
		if err != nil && out.firstErr == nil {
			out.firstErr = fmt.Errorf("traced query %d: %w", qid, err)
		}
		out.outcomes = append(out.outcomes, outcome{got: got, failed: err != nil})
	}
	out.spans = rec.export()
	return out, instance{tr, d.dataset}, ctx.Err()
}

// layerMetrics derives every per-layer metric from the traced run's spans
// and samples and from the untraced round's registry deltas.
func layerMetrics(w workloadSpec, r *round, t *tracedRun) map[string]float64 {
	m := map[string]float64{}
	byID := make(map[int]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	self := selfTimes(t.spans)

	byQuery := func(name string) map[int]float64 { return byQuery(t.spans, name) }
	// ownExec says whether s is the execution stage in its query's own mode.
	ownExec := func(s span) bool {
		return (s.Name == "exec.run" && !t.streamed[s.QID]) || (s.Name == "exec.stream_run" && t.streamed[s.QID])
	}
	for _, stage := range []string{
		"cond.parse", "sqlparse.parse", "stats.gather", "stats.build", "optimizer.sjaplus", "plan.estimate",
		"core.problem", "core.query_cold", "core.query_planned", "exec.run", "exec.stream_run",
		"service.admit", "service.answer_get", "service.plan_get", "service.ladder", "wire.select_rtt",
	} {
		m[stage+"_us"] = median(values(byQuery(stage)))
	}
	for _, name := range []string{"optimizer.plan_steps", "optimizer.est_over_measured", "exec.source_queries", "exec.first_answer_ms", "exec.peak_kb"} {
		m[name] = median(values(t.samples[name]))
	}

	// Of two timings that are compared, whichever ran second is the slower
	// by a few per cent (it meets the first one's garbage and a colder
	// cache), so the two swap places from query to query (inOrder). Each
	// side of the comparison is then the mean of its medians in the two
	// orders, in which going first counts as often for it as against it.
	crossover := func(a, b map[int]float64, f func(a, b float64) float64) float64 {
		var as, bs [2][]float64
		for q, v := range a {
			if w, ok := b[q]; ok {
				as[q%2], bs[q%2] = append(as[q%2], v), append(bs[q%2], w)
			}
		}
		balanced := func(xs [2][]float64) float64 {
			if len(xs[0]) == 0 || len(xs[1]) == 0 {
				return median(append(xs[0], xs[1]...))
			}
			return (median(xs[0]) + median(xs[1])) / 2
		}
		return f(balanced(as), balanced(bs))
	}
	minus := func(a, b float64) float64 { return a - b }
	over := func(a, b float64) float64 { return ratio(a, b) - 1 }
	problem, optimize, plain := byQuery("core.problem"), byQuery("optimizer.sjaplus"), byQuery("exec.plain")
	execOwn := map[int]float64{}
	for _, s := range t.spans {
		if ownExec(s) {
			execOwn[s.QID] = spanMicros(s)
		}
	}
	// On the planned entry point the mediator neither gathers statistics
	// nor optimizes, so what it adds to the execution of the plan is its own.
	var coreSelf []float64
	for q, whole := range byQuery("core.query_planned_norec") {
		coreSelf = append(coreSelf, whole-plain[q])
	}
	m["core.self_us"] = median(coreSelf)
	m["wire.overhead_us"] = crossover(byQuery("wire.select_rtt"), byQuery("wire.local_select"), minus)
	m["fabric.overhead_us"] = crossover(byQuery("fabric.select"), byQuery("fabric.endpoint_select"), minus)
	client, inProcess := byQuery("service.probe_client"), byQuery("service.probe_engine")
	m["service.transport_us"] = crossover(client, inProcess, minus)
	clientPerItem, inProcessPerItem := map[int]float64{}, map[int]float64{}
	for _, s := range t.spans {
		if s.Name == "service.probe_client" && s.Items > 0 {
			clientPerItem[s.QID] = client[s.QID] * 1000 / float64(s.Items)
			inProcessPerItem[s.QID] = inProcess[s.QID] * 1000 / float64(s.Items)
		}
	}
	m["service.transport_ns_per_item"] = crossover(clientPerItem, inProcessPerItem, minus)
	m["loadgen.trace_overhead_share"] = crossover(execOwn, plain, over)
	m["obs.recorder_overhead_share"] = crossover(byQuery("core.query_planned"), byQuery("core.query_planned_norec"), over)

	// Source calls, by the stage they were made under.
	stageOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	var selectUS, semijoinUS []float64
	gatherCalls := map[int]float64{}
	execCalls, execItems := map[int]float64{}, map[int]float64{}
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "source.") || s.Parent == 0 {
			continue
		}
		switch stage := stageOf(s); {
		case stage.Name == "stats.gather":
			gatherCalls[s.QID]++
			if s.Name == "source.select" {
				selectUS = append(selectUS, spanMicros(s))
			}
		case ownExec(stage):
			execCalls[s.QID]++
			execItems[s.QID] += float64(s.Items)
			if s.Name == "source.semijoin" {
				semijoinUS = append(semijoinUS, spanMicros(s))
			}
		}
	}
	m["source.select_us"] = median(selectUS)
	m["source.semijoin_us"] = median(semijoinUS)
	m["stats.exchanges_per_query"] = median(values(gatherCalls))
	m["source.calls_per_query"] = median(values(execCalls))
	var itemsPerCall []float64
	for q, n := range execCalls {
		itemsPerCall = append(itemsPerCall, execItems[q]/n)
	}
	m["source.items_per_call"] = median(itemsPerCall)
	var execSelf, busy []float64
	for _, s := range t.spans {
		if ownExec(s) {
			own := float64(self[s.ID]) / float64(time.Microsecond)
			execSelf = append(execSelf, own)
			busy = append(busy, 1-ratio(own, spanMicros(s)))
		}
	}
	m["exec.self_us"] = median(execSelf)
	m["source.busy_share"] = median(busy)
	// Kernels with a unit of work: nanoseconds per unit.
	nsPerItem := func(names ...string) float64 {
		var out []float64
		for _, s := range t.spans {
			for _, name := range names {
				if s.Name == name && s.Items > 0 {
					out = append(out, float64(s.dur())/float64(s.Items))
				}
			}
		}
		return median(out)
	}
	m["wire.stream_chunk_us"] = nsPerItem("wire.stream_drain") / 1000
	m["set.new_ns_per_item"] = nsPerItem("set.new")
	m["set.union_ns_per_item"] = nsPerItem("set.union")
	m["set.intersect_ns_per_item"] = nsPerItem("set.intersect")
	m["set.merge_iter_ns_per_item"] = nsPerItem("set.merge_union", "set.merge_intersect")

	// Coverage: the ladder's steps on the path the first Engine.Query
	// took, over that call.
	admit, key, answerGet, planGet := byQuery("service.admit"), byQuery("service.key"), byQuery("service.answer_get"), byQuery("service.plan_get")
	setNew := byQuery("set.new")
	stagedSum := map[int]float64{}
	for q, path := range t.samples["path"] {
		staged := admit[q] + key[q] + answerGet[q]
		if path == pathAnswerCached {
			staged += setNew[q]
		}
		if path < pathAnswerCached {
			staged += planGet[q] + plain[q]
		}
		if path < pathPlanCached {
			staged += problem[q] + optimize[q]
		}
		stagedSum[q] = staged
	}
	m["loadgen.trace_coverage"] = crossover(stagedSum, byQuery("service.ladder"), ratio)

	// Registry and reply deltas of the untraced round.
	answered := float64(r.answered())
	b, a := r.before, r.after
	m["exec.stream_batches_per_query"] = ratio(a.streamBatches-b.streamBatches, answered)
	m["wire.bytes_per_source_byte"] = ratio(a.wireBytes-b.wireBytes, a.sourceBytes-b.sourceBytes)
	m["wire.errors"] = a.wireErrors - b.wireErrors
	m["fabric.hedge_share"] = ratio(a.hedges-b.hedges, a.logicalCalls-b.logicalCalls)
	m["fabric.failovers"] = a.failovers - b.failovers
	m["service.answer_hit_share"] = ratio(float64(r.answerHits), answered)
	m["service.plan_hit_share"] = ratio(float64(r.planHits), answered)
	m["service.shed_share"] = ratio(a.shed-b.shed, a.shed-b.shed+a.admitted-b.admitted)
	m["netsim.exchanges_per_query"] = ratio(a.exchanges-b.exchanges, answered)
	m["netsim.sleep_share"] = ratio((a.exchangeSec-b.exchangeSec)*w.deploy.realTime, r.wallSec*clients)
	m["netsim.log_entries_end"] = a.netsimLog
	m["loadgen.p95_ms"] = quantile(r.latencyMs, 0.95)
	m["loadgen.p99_ms"] = quantile(r.latencyMs, 0.99)
	return m
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

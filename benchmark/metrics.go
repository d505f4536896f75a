package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the service sees, per workload; the
// glossary of these and of perLayer is in README.md. Every
// one is non-zero on every workload, so that a bound relative to the
// parent's median is defined: that is why the three source-traffic totals
// of the paper's cost model count a round's warm-up too (the measured phase
// of answer-hot costs the sources nothing), and why failures are the run's
// attempted/failed counts and not a metric. The tails are loadgen.p95_ms and
// loadgen.p99_ms below: they hold no bound on the reference machine.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: lower, Bound: 0.06},
	{Name: "alloc_kb_per_query", Unit: "KiB", Better: lower, Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "source_exchanges_per_query", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "source_kb_per_query", Unit: "KiB", Better: lower, Bound: 0.05},
	{Name: "sim_cost_ms_per_query", Unit: "ms", Better: lower, Bound: 0.05},
}

// perLayer are the metrics of single layers (layer = package name), from
// the traced run or, where README.md says reg, from the registry deltas of
// one untraced round. They have no bounds.
var perLayer = []metricDef{
	{Name: "cond.parse_us", Unit: "us", Better: lower},
	{Name: "sqlparse.parse_us", Unit: "us", Better: lower},
	{Name: "stats.gather_us", Unit: "us", Better: lower},
	{Name: "stats.build_us", Unit: "us", Better: lower},
	{Name: "stats.exchanges_per_query", Unit: "count", Better: lower},
	{Name: "optimizer.sjaplus_us", Unit: "us", Better: lower},
	{Name: "optimizer.plan_steps", Unit: "count", Better: lower},
	{Name: "optimizer.est_over_measured", Unit: "ratio", Better: lower},
	{Name: "plan.estimate_us", Unit: "us", Better: lower},
	{Name: "core.problem_us", Unit: "us", Better: lower},
	{Name: "core.query_cold_us", Unit: "us", Better: lower},
	{Name: "core.query_planned_us", Unit: "us", Better: lower},
	{Name: "core.self_us", Unit: "us", Better: lower},
	{Name: "exec.run_us", Unit: "us", Better: lower},
	{Name: "exec.stream_run_us", Unit: "us", Better: lower},
	{Name: "exec.self_us", Unit: "us", Better: lower},
	{Name: "exec.source_queries", Unit: "count", Better: lower},
	{Name: "exec.first_answer_ms", Unit: "ms", Better: lower},
	{Name: "exec.peak_kb", Unit: "KiB", Better: lower},
	{Name: "exec.stream_batches_per_query", Unit: "count", Better: lower},
	{Name: "set.new_ns_per_item", Unit: "ns", Better: lower},
	{Name: "set.union_ns_per_item", Unit: "ns", Better: lower},
	{Name: "set.intersect_ns_per_item", Unit: "ns", Better: lower},
	{Name: "set.merge_iter_ns_per_item", Unit: "ns", Better: lower},
	{Name: "source.select_us", Unit: "us", Better: lower},
	{Name: "source.semijoin_us", Unit: "us", Better: lower},
	{Name: "source.calls_per_query", Unit: "count", Better: lower},
	{Name: "source.items_per_call", Unit: "count", Better: lower},
	{Name: "source.busy_share", Unit: "ratio", Better: lower},
	{Name: "wire.select_rtt_us", Unit: "us", Better: lower},
	{Name: "wire.overhead_us", Unit: "us", Better: lower},
	{Name: "wire.stream_chunk_us", Unit: "us", Better: lower},
	{Name: "wire.bytes_per_source_byte", Unit: "ratio", Better: lower},
	{Name: "wire.errors", Unit: "count", Better: lower},
	{Name: "fabric.overhead_us", Unit: "us", Better: lower},
	{Name: "fabric.hedge_share", Unit: "ratio", Better: lower},
	{Name: "fabric.failovers", Unit: "count", Better: lower},
	{Name: "service.admit_us", Unit: "us", Better: lower},
	{Name: "service.answer_get_us", Unit: "us", Better: lower},
	{Name: "service.plan_get_us", Unit: "us", Better: lower},
	{Name: "service.ladder_us", Unit: "us", Better: lower},
	{Name: "service.transport_us", Unit: "us", Better: lower},
	{Name: "service.transport_ns_per_item", Unit: "ns", Better: lower},
	{Name: "service.answer_hit_share", Unit: "ratio", Better: higher},
	{Name: "service.plan_hit_share", Unit: "ratio", Better: higher},
	{Name: "service.shed_share", Unit: "ratio", Better: lower},
	{Name: "netsim.exchanges_per_query", Unit: "count", Better: lower},
	{Name: "netsim.sleep_share", Unit: "ratio", Better: lower},
	{Name: "netsim.log_entries_end", Unit: "count", Better: lower},
	{Name: "obs.recorder_overhead_share", Unit: "ratio", Better: lower},
	{Name: "loadgen.trace_overhead_share", Unit: "ratio", Better: lower},
	{Name: "loadgen.trace_coverage", Unit: "ratio", Better: higher},
	{Name: "loadgen.p95_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.p99_ms", Unit: "ms", Better: lower},
}

// median of xs, the mean of the middle two for an even count; 0 for none.
// xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile is the exact order statistic at rank ceil(q*n), as the
// service's own load report computes it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package obs

// Canonical metric names. Every layer that emits a metric references these
// constants, so the mediator, the executor, the source decorators and the
// wire server agree on one vocabulary and a scrape of any registry is
// self-consistent.
const (
	// MQueries counts fusion queries run, labeled by final status
	// (ok | error | timeout | cancel).
	MQueries = "fq_queries_total"
	// MQuerySeconds is the wall-clock latency histogram of whole queries
	// (planning + execution), in seconds.
	MQuerySeconds = "fq_query_seconds"
	// MSourceQueries counts charged source operations, labeled by source.
	MSourceQueries = "fq_source_queries_total"
	// MRetries counts transient-failure re-issues, labeled by source.
	MRetries = "fq_retries_total"
	// MStepErrors counts plan steps that ultimately failed, labeled by
	// source.
	MStepErrors = "fq_step_errors_total"
	// MSchedQueueDepth is the number of exchanges waiting for a connection
	// slot; MSchedLaneOccupancy is the number currently holding one. Both
	// labeled by source.
	MSchedQueueDepth    = "fq_sched_queue_depth"
	MSchedLaneOccupancy = "fq_sched_lane_occupancy"
	// MBytesSent / MBytesReceived count modeled request and response bytes
	// per source exchange, labeled by source.
	MBytesSent     = "fq_source_bytes_sent_total"
	MBytesReceived = "fq_source_bytes_received_total"
	// MExchangeSeconds is the simulated per-exchange latency histogram,
	// labeled by source.
	MExchangeSeconds = "fq_exchange_seconds"
	// MInjectedFailures counts failures injected by the flaky decorator,
	// labeled by source and op.
	MInjectedFailures = "fq_injected_failures_total"
	// MWireRequests / MWireErrors count wire-protocol requests served,
	// labeled by op; MWireSeconds is the server-side dispatch latency
	// histogram.
	MWireRequests = "fq_wire_requests_total"
	MWireErrors   = "fq_wire_errors_total"
	MWireSeconds  = "fq_wire_request_seconds"
	// MFirstAnswerSeconds is the wall-clock latency histogram from run
	// start to the first answer batch — the quantity streaming execution
	// decouples from total work.
	MFirstAnswerSeconds = "fq_first_answer_seconds"
	// MStreamBatches counts answer batches emitted by streaming plan
	// nodes, labeled by source for source-query nodes ("" for local
	// operators).
	MStreamBatches = "fq_stream_batches_total"
	// MHedges counts hedged backup exchanges launched by the source
	// fabric, labeled by logical source; MHedgeWins counts the subset the
	// backup replica won.
	MHedges    = "fq_hedge_total"
	MHedgeWins = "fq_hedge_won_total"
	// MBreakerState is each physical endpoint's circuit-breaker state
	// (0 closed, 1 half-open, 2 open), labeled by endpoint.
	MBreakerState = "fq_breaker_state"
	// MFailovers counts exchanges re-issued on another replica after a
	// replica failed, labeled by logical source.
	MFailovers = "fq_failover_total"
	// MReplans counts mid-query roster repairs: the remaining conditions
	// re-planned over surviving sources after a logical source died.
	MReplans = "fq_replan_total"
	// MLogicalExchangeSeconds is the wall-clock latency histogram of whole
	// logical exchanges through the fabric — failover and hedging included —
	// labeled by logical source. This is the distribution hedging tightens.
	MLogicalExchangeSeconds = "fq_logical_exchange_seconds"
	// MWireBytesIn / MWireBytesOut count semantic payload bytes crossing the
	// wire server, labeled by op: condition/item/filter bytes in, item/tuple
	// bytes out. Computed identically to the byte counts in server-side span
	// fragments, so the oracle can reconcile the two.
	MWireBytesIn  = "fq_wire_bytes_in_total"
	MWireBytesOut = "fq_wire_bytes_out_total"
	// MTraceRetained counts query records kept by the flight recorder,
	// labeled by class (interesting | sampled); MTraceDropped counts records
	// it let go, labeled by reason (sampled | evicted). MTraceBytes is the
	// recorder's approximate retained-bytes footprint.
	MTraceRetained = "fq_trace_retained_total"
	MTraceDropped  = "fq_trace_dropped_total"
	MTraceBytes    = "fq_trace_bytes"
	// MLiveQueries is the number of queries currently in flight through the
	// flight recorder's live registry.
	MLiveQueries = "fq_live_queries"
	// MSlowQueries counts queries at or above the recorder's slow threshold.
	MSlowQueries = "fq_slow_queries_total"
	// MAdmitted counts queries the service admission controller let through,
	// labeled by tenant; MShed counts the queries it rejected, labeled by
	// tenant and reason (queue-full | quota | draining). Together they are the
	// honest load-shedding ledger: every service query is exactly one of
	// admitted, shed, or abandoned by its own caller before a slot freed.
	MAdmitted = "fq_admitted_total"
	MShed     = "fq_shed_total"
	// MInflight is the number of admitted queries currently executing;
	// MAdmitQueue is the number waiting for an execution slot.
	MInflight   = "fq_inflight"
	MAdmitQueue = "fq_admit_queue_depth"
	// MPlanCacheHits / MPlanCacheMisses count plan-cache consultations: a hit
	// reuses an optimized plan and skips statistics gathering and
	// optimization entirely. MPlanCacheEvictions counts entries dropped,
	// labeled by reason (stale — the roster epoch moved on | size).
	MPlanCacheHits      = "fq_plan_cache_hits_total"
	MPlanCacheMisses    = "fq_plan_cache_misses_total"
	MPlanCacheEvictions = "fq_plan_cache_evictions_total"
	// MAnswerCacheHits / MAnswerCacheMisses count whole-answer cache
	// consultations at the service layer; MAnswerCacheEvictions counts
	// entries dropped, labeled by reason (ttl | size | stale).
	// MAnswerCacheEntries / MAnswerCacheBytes gauge the cache's current
	// footprint against its configured bounds. A query charges one hit
	// or one miss. MAnswerCoalesced counts queries that missed and were
	// served the answer of an identical query already executing.
	MAnswerCacheHits      = "fq_answer_cache_hits_total"
	MAnswerCacheMisses    = "fq_answer_cache_misses_total"
	MAnswerCacheEvictions = "fq_answer_cache_evictions_total"
	MAnswerCacheEntries   = "fq_answer_cache_entries"
	MAnswerCacheBytes     = "fq_answer_cache_bytes"
	MAnswerCoalesced      = "fq_answer_coalesced_total"
)

// DescribeAll registers help text and type for every canonical metric on r,
// so a scrape shows # HELP / # TYPE headers for the whole vocabulary — even
// families this process never touches (e.g. the mediator-side retry counter
// on an fqsource registry). Safe on a nil registry.
func DescribeAll(r *Registry) {
	for _, d := range []struct{ name, kind, help string }{
		{MQueries, kindCounter, "Fusion queries run, by final status."},
		{MQuerySeconds, kindHistogram, "Whole-query wall-clock latency in seconds."},
		{MSourceQueries, kindCounter, "Charged source operations (selections, semijoins, bindings, loads)."},
		{MRetries, kindCounter, "Source operations re-issued after a transient failure."},
		{MStepErrors, kindCounter, "Plan steps that failed after exhausting retries."},
		{MSchedQueueDepth, kindGauge, "Exchanges waiting for a per-source connection slot."},
		{MSchedLaneOccupancy, kindGauge, "Exchanges currently holding a connection slot."},
		{MBytesSent, kindCounter, "Modeled bytes sent to sources."},
		{MBytesReceived, kindCounter, "Modeled bytes received from sources."},
		{MExchangeSeconds, kindHistogram, "Simulated per-exchange latency in seconds."},
		{MInjectedFailures, kindCounter, "Failures injected by the flaky source decorator."},
		{MWireRequests, kindCounter, "Wire-protocol requests served, by op."},
		{MWireErrors, kindCounter, "Wire-protocol requests that returned an error, by op."},
		{MWireSeconds, kindHistogram, "Server-side wire request dispatch latency in seconds."},
		{MFirstAnswerSeconds, kindHistogram, "Wall-clock latency to the first answer batch in seconds."},
		{MStreamBatches, kindCounter, "Answer batches emitted by streaming plan nodes."},
		{MHedges, kindCounter, "Hedged backup exchanges launched by the source fabric."},
		{MHedgeWins, kindCounter, "Hedged exchanges the backup replica won."},
		{MBreakerState, kindGauge, "Endpoint circuit-breaker state (0 closed, 1 half-open, 2 open)."},
		{MFailovers, kindCounter, "Exchanges re-issued on another replica after a failure."},
		{MReplans, kindCounter, "Mid-query roster repairs re-planned over surviving sources."},
		{MLogicalExchangeSeconds, kindHistogram, "Wall-clock whole-logical-exchange latency in seconds."},
		{MWireBytesIn, kindCounter, "Semantic request payload bytes received by the wire server, by op."},
		{MWireBytesOut, kindCounter, "Semantic response payload bytes sent by the wire server, by op."},
		{MTraceRetained, kindCounter, "Query records retained by the flight recorder, by class."},
		{MTraceDropped, kindCounter, "Query records dropped by the flight recorder, by reason."},
		{MTraceBytes, kindGauge, "Approximate bytes of query records the flight recorder holds."},
		{MLiveQueries, kindGauge, "Queries currently in flight through the recorder's live registry."},
		{MSlowQueries, kindCounter, "Queries at or above the flight recorder's slow threshold."},
		{MAdmitted, kindCounter, "Service queries admitted for execution, by tenant."},
		{MShed, kindCounter, "Service queries rejected by admission control, by tenant and reason."},
		{MInflight, kindGauge, "Admitted service queries currently executing."},
		{MAdmitQueue, kindGauge, "Service queries waiting for an execution slot."},
		{MPlanCacheHits, kindCounter, "Plan-cache consultations that reused an optimized plan."},
		{MPlanCacheMisses, kindCounter, "Plan-cache consultations that had to plan afresh."},
		{MPlanCacheEvictions, kindCounter, "Plan-cache entries dropped, by reason."},
		{MAnswerCacheHits, kindCounter, "Answer-cache consultations served without executing."},
		{MAnswerCacheMisses, kindCounter, "Answer-cache consultations that executed the query."},
		{MAnswerCacheEvictions, kindCounter, "Answer-cache entries dropped, by reason."},
		{MAnswerCacheEntries, kindGauge, "Entries currently held by the service answer cache."},
		{MAnswerCacheBytes, kindGauge, "Approximate bytes held by the service answer cache."},
		{MAnswerCoalesced, kindCounter, "Answer-cache misses served the answer of an identical query in flight."},
	} {
		r.describeTyped(d.name, d.kind, d.help)
	}
}

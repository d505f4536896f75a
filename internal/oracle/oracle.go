// Package oracle implements a seeded, reproducible property-based testing
// subsystem for the fusion-query pipeline: a differential plan-equivalence
// oracle in the spirit of SQLancer-style query-engine oracles and
// Jepsen-style fault sweeps.
//
// The paper's central semantic claim is that every plan class — FILTER, SJ,
// SJA, postoptimized SJA+, the greedy variants, and the join-over-union
// baseline — computes the same answer set; the classes differ only in cost.
// The oracle earns that claim across the input space instead of on
// hand-built examples: a generator draws random universes (overlapping
// sources, skew, capability mixes, heterogeneous links, flaky decorators), a
// naive reference executor computes ground truth directly from the raw
// relations, and a differential driver runs every plan class through the
// real executor under both schedulers the mediator runs — overlapped rounds
// and the pipeline — with and without injected faults and deadlines,
// checking:
//
//   - answer equality: every successful execution returns exactly the
//     reference answer, byte for byte;
//   - honest partials: a failed or cancelled run reports an error that
//     classifies the cause (transient, cancellation, deadline) and never a
//     wrong non-empty answer;
//   - cost-model invariants: algorithm bookkeeping equals the shared
//     estimator, SJA is no costlier than SJ and FILTER and no greedy
//     variant beats it, SJA+ is no costlier than SJA, and on small
//     instances SJA matches the exhaustive optimum;
//   - execution-accounting identities: response time never exceeds total
//     work, and the steps' elapsed times sum to it;
//   - catalog overlap: a cold statistics catalog asks every source before
//     it waits for any, and plans what a catalog filled one source after
//     another plans;
//   - observability balance: every started span ends, per-source metric
//     sums equal the executor's counters, and scheduler gauges drain to
//     zero;
//   - the service: on the instances the plan-cache flag selects, a real fqd
//     over loopback TCP answers concurrent tenants exactly, sheds only by
//     quota and exactly, and drains its admission gauges on Shutdown.
//
// Everything is derived from one seed, so any failure reproduces verbatim;
// a greedy shrinker reduces failing instances to minimal form.
package oracle

import (
	"encoding/json"
	"fmt"

	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// Capability tiers a generated source can be assigned. The tier fixes both
// the wrapper capabilities and the cost model's semijoin support.
const (
	// TierNative supports native semijoins and passed bindings.
	TierNative = iota
	// TierBloom additionally accepts Bloom-filter semijoins.
	TierBloom
	// TierEmulated supports only passed-binding selections: semijoins are
	// emulated one item at a time.
	TierEmulated
	// TierNone supports only plain selections (and loads).
	TierNone
	numTiers
)

// Instance is one fully self-describing oracle test case. Every field is
// derived from a single seed by Generate, and the whole struct round-trips
// through JSON, so a failing instance can be reprinted, shrunk, and rerun
// verbatim.
type Instance struct {
	// Seed drives every random choice made while materializing the
	// instance: the synthetic data, the failure injection sequence, and the
	// network jitter stream.
	Seed int64 `json:"seed"`

	// Workload shape (see workload.SynthConfig).
	NumSources      int       `json:"numSources"`
	TuplesPerSource int       `json:"tuplesPerSource"`
	Universe        int       `json:"universe"`
	Selectivity     []float64 `json:"selectivity"`
	Backend         int       `json:"backend"`
	Zipf            bool      `json:"zipf,omitempty"`
	Correlation     float64   `json:"correlation,omitempty"`
	PayloadBytes    int       `json:"payloadBytes,omitempty"`

	// Per-source capability tier (Tier* constants) and link shape.
	CapTiers  []int `json:"capTiers"`
	LatencyUS []int `json:"latencyUs"`
	MaxConns  []int `json:"maxConns"`

	// Sweeps enabled for this instance.
	Faults    bool    `json:"faults,omitempty"`
	FaultRate float64 `json:"faultRate,omitempty"`
	Retries   int     `json:"retries"`
	Deadline  bool    `json:"deadline,omitempty"`
	// Replicate puts the first source behind a two-replica fabric logical
	// and runs the churn sweep: a scripted kill takes down one replica
	// (ChurnKillAll false — the run must still return the exact answer) or
	// both (ChurnKillAll true — the run must fail with a classified
	// exhaustion and never a wrong non-empty answer).
	Replicate    bool `json:"replicate,omitempty"`
	ChurnKillAll bool `json:"churnKillAll,omitempty"`
	// WireTrace serves the sources over real loopback wire servers and runs
	// the trace-completeness sweep: every exchange must leave a grafted,
	// skew-normalized server fragment in the trace, and the fragments' byte
	// counts must reconcile with the servers' fq_wire_bytes_* counters.
	WireTrace bool `json:"wireTrace,omitempty"`
	// PlanCache runs the plan-cache coherence sweep: the sources go behind
	// a real mediator and the service's epoch-keyed plan cache, and cached
	// plans must answer exactly like fresh ones before and after scripted
	// roster churn — with stale plans never served and never executed
	// (core.ErrStalePlan). Skipped on single-source instances, where churn
	// would empty the roster. The flag also gates the fqd phase: the sources
	// behind a real fqd over loopback TCP, answering concurrent tenants.
	PlanCache bool `json:"planCache,omitempty"`
}

// JSON renders the instance as indented JSON — the repro artifact format of
// the test harness and cmd/fqoracle.
func (in Instance) JSON() string {
	b, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return fmt.Sprintf("{"+`"marshal error": %q`+"}", err.Error())
	}
	return string(b)
}

// ReproCommand returns the go test invocation that replays exactly this
// instance.
func (in Instance) ReproCommand() string {
	return fmt.Sprintf("go test ./internal/oracle -run 'TestOracle$' -oracle.seed=%d -oracle.n=1", in.Seed)
}

// synthConfig translates the instance into the workload generator's
// configuration.
func (in Instance) synthConfig() workload.SynthConfig {
	caps := make([]source.Capabilities, len(in.CapTiers))
	for j, tier := range in.CapTiers {
		caps[j] = capsForTier(tier)
	}
	return workload.SynthConfig{
		Seed:            in.Seed,
		NumSources:      in.NumSources,
		TuplesPerSource: in.TuplesPerSource,
		Universe:        in.Universe,
		Selectivity:     append([]float64(nil), in.Selectivity...),
		Backend:         workload.BackendKind(in.Backend),
		Caps:            caps,
		Zipf:            in.Zipf,
		PayloadBytes:    in.PayloadBytes,
		Correlation:     in.Correlation,
	}
}

// capsForTier maps a capability tier to wrapper capabilities.
func capsForTier(tier int) source.Capabilities {
	switch tier {
	case TierBloom:
		return source.Capabilities{NativeSemijoin: true, PassedBindings: true, BloomSemijoin: true}
	case TierEmulated:
		return source.Capabilities{PassedBindings: true}
	case TierNone:
		return source.Capabilities{}
	default:
		return source.Capabilities{NativeSemijoin: true, PassedBindings: true}
	}
}

// Failure is one property violation found while checking an instance.
type Failure struct {
	// Property names the violated invariant: "answer-mismatch",
	// "records-mismatch", "partial-dishonest", "error-class",
	// "cost-bookkeeping", "cost-dominance", "par-response",
	// "step-identity", "first-answer", "peak-accounting", "span-unfinished",
	// "metric-imbalance", "gauge-leak", "optimize-error",
	// "exec-error", "wire-frag-missing", "wire-frag-nesting",
	// "wire-bytes-mismatch", "plan-cache-coherence", "catalog-overlap",
	// "service-error", "service-quota", "service-cache",
	// "service-accounting", "service-hang".
	Property string `json:"property"`
	// Class is the plan class involved ("filter", "sja+", "jou", ...).
	Class string `json:"class,omitempty"`
	// Mode is the execution mode ("par", "stream", "faults",
	// "deadline", ...), empty for planning-time properties.
	Mode string `json:"mode,omitempty"`
	// Detail is a human-readable account of the violation.
	Detail string `json:"detail"`
}

// String renders the failure on one line.
func (f Failure) String() string {
	s := f.Property
	if f.Class != "" {
		s += " [" + f.Class
		if f.Mode != "" {
			s += "/" + f.Mode
		}
		s += "]"
	} else if f.Mode != "" {
		s += " [" + f.Mode + "]"
	}
	return s + ": " + f.Detail
}

// properties returns the distinct property names of a failure list.
func properties(fs []Failure) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		out[f.Property] = true
	}
	return out
}

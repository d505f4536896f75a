package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// replicatedDMVSetup wires the DMV scenario with source 0 replaced by a
// two-replica logical fabric source: two physical endpoints over the same
// relation, each with its own network link, behind the original logical
// name — so plans and statistics stay replica-oblivious.
func replicatedDMVSetup(t *testing.T, opts fabric.Options) (*optimizer.Problem, []source.Source, *netsim.Network, *fabric.Logical) {
	t.Helper()
	sc := workload.DMV()
	network := netsim.NewNetwork(1)
	link := netsim.Link{Latency: 10 * time.Millisecond, BytesPerSec: 10000, RequestOverhead: 5 * time.Millisecond}
	srcs := make([]source.Source, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	var logical *fabric.Logical
	for j, raw := range sc.Sources {
		w := raw.(*source.Wrapper)
		if j == 0 {
			var eps []*fabric.Endpoint
			for _, suffix := range []string{"-a", "-b"} {
				rep := source.NewWrapper(w.Name()+suffix, source.NewRowBackend(sc.Relations[j]), w.Caps())
				network.SetLink(rep.Name(), link)
				eps = append(eps, fabric.NewEndpoint(source.Instrument(rep, network), 1))
			}
			var err error
			logical, err = fabric.NewLogical(w.Name(), eps, opts)
			if err != nil {
				t.Fatal(err)
			}
			srcs[j] = logical
		} else {
			network.SetLink(w.Name(), link)
			srcs[j] = source.Instrument(w, network)
		}
		profiles[j] = stats.ProfileFromLink(w.Name(), link, 3, stats.SupportOf(srcs[j].Caps()))
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, srcs, profiles)
	if err != nil {
		t.Fatal(err)
	}
	network.Reset() // statistics gathering is free
	// Rebuild the logical source so the run starts with fresh health and
	// breakers: an unobserved endpoint scores zero and is always preferred,
	// so both replicas deterministically receive traffic within the first
	// two logical exchanges regardless of statistics-phase warmup.
	logical, err = fabric.NewLogical(logical.Name(), logical.Endpoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srcs[0] = logical
	pr := &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}
	return pr, srcs, network, logical
}

// TestFailoverAcrossReplicasMidQuery is the acceptance scenario: one replica
// of a two-replica logical source is killed by scripted churn, and the
// query still completes with the FULL answer — the fabric fails the dead
// endpoint's exchanges over to its sibling. A planned run and an adaptive
// one go through the same node, so both report the failovers, attribute
// them to steps in the trace, and say when the answer existed and what it
// held at peak.
func TestFailoverAcrossReplicasMidQuery(t *testing.T) {
	for name, run := range map[string]func(*Executor, *optimizer.Problem) (*Result, *plan.Plan, error){
		"planned": func(ex *Executor, pr *optimizer.Problem) (*Result, *plan.Plan, error) {
			res, err := optimizer.Filter(pr)
			if err != nil {
				return nil, nil, err
			}
			got, err := ex.Run(context.Background(), res.Plan)
			return got, res.Plan, err
		},
		"adaptive": func(ex *Executor, pr *optimizer.Problem) (*Result, *plan.Plan, error) {
			got, err := ex.Run(context.Background(), adaptivePlan(t, pr))
			return got, got.Plan, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			pr, srcs, network, logical := replicatedDMVSetup(t, fabric.Options{NoSpeculation: true})
			network.ScheduleChurn([]netsim.ChurnEvent{
				{At: 0, Source: logical.Endpoints()[0].Name(), Kind: netsim.ChurnKill},
			})
			ex := &Executor{Sources: srcs, Network: network, Retries: 1}
			got, p, err := run(ex, pr)
			if err != nil {
				t.Fatalf("run with one dead replica: %v\nplan:\n%s", err, p)
			}
			if !got.Answer.Equal(dmvAnswer) {
				t.Fatalf("answer = %v, want the full answer %v", got.Answer, dmvAnswer)
			}
			if got.Failovers < 1 {
				t.Fatalf("Failovers = %d, want >= 1 (dead replica must have been tried)", got.Failovers)
			}
			if st := logical.Stats(); st.Failovers < 1 {
				t.Fatalf("logical stats failovers = %d, want >= 1", st.Failovers)
			}
			if got.FailedStep != -1 {
				t.Fatalf("FailedStep = %d, want -1 for a fully repaired run", got.FailedStep)
			}
			// The accounting survives failover: the dead endpoint's attempts
			// are charged to the steps that made them, and the overlapped
			// rounds take no longer than their work.
			if got.TotalWork <= 0 || got.ResponseTime > got.TotalWork || stepWork(got) != got.TotalWork {
				t.Fatalf("timing = total %v / response %v, steps sum to %v", got.TotalWork, got.ResponseTime, stepWork(got))
			}
			if got.FirstAnswer <= 0 || got.PeakBytes < got.Answer.Bytes() {
				t.Fatalf("FirstAnswer = %v, PeakBytes = %d for an answer of %d bytes", got.FirstAnswer, got.PeakBytes, got.Answer.Bytes())
			}
			// The trace has every step, in order, and attributes every
			// failover and source query to some step.
			if len(got.Trace) != len(p.Steps) {
				t.Fatalf("trace has %d entries for %d steps", len(got.Trace), len(p.Steps))
			}
			failovers, queries := 0, 0
			for i, tr := range got.Trace {
				if tr.Index != i || tr.Text != p.StepString(p.Steps[i]) {
					t.Fatalf("trace entry %d is %d %q, want %q", i, tr.Index, tr.Text, p.StepString(p.Steps[i]))
				}
				failovers += tr.Failovers
				queries += tr.Queries
			}
			if failovers != got.Failovers || queries != got.SourceQueries {
				t.Fatalf("trace sums: %d failovers, %d queries; result reports %d, %d", failovers, queries, got.Failovers, got.SourceQueries)
			}
		})
	}
}

// TestAdaptiveFailedRunReportsStep: with every replica of a source dead an
// adaptive run fails like a planned one — the error is the fabric's, the
// failed step is an index into the executed plan, and the work that reached
// the other sources before the failure stopped the round stays charged.
func TestAdaptiveFailedRunReportsStep(t *testing.T) {
	pr, srcs, network, logical := replicatedDMVSetup(t, fabric.Options{NoSpeculation: true})
	var kill []netsim.ChurnEvent
	for _, ep := range logical.Endpoints() {
		kill = append(kill, netsim.ChurnEvent{At: 0, Source: ep.Name(), Kind: netsim.ChurnKill})
	}
	network.ScheduleChurn(kill)
	ex := &Executor{Sources: srcs, Network: network}
	got, err := ex.Run(context.Background(), adaptivePlan(t, pr))
	executed := got.Plan
	if !errors.Is(err, fabric.ErrExhausted) {
		t.Fatalf("err = %v, want fabric exhaustion", err)
	}
	if got.FailedStep < 0 || got.FailedStep >= len(executed.Steps) || executed.Steps[got.FailedStep].Source != 0 {
		t.Fatalf("FailedStep = %d, want the query against %s in\n%s", got.FailedStep, logical.Name(), executed)
	}
	if !got.Answer.IsEmpty() {
		t.Fatalf("failed run leaked an answer: %v", got.Answer)
	}
	// The failure stops the round's other two selections; whichever of them
	// had reached its source by then is charged, to its step.
	queries, work := 0, time.Duration(0)
	for _, tr := range got.Trace {
		queries += tr.Queries
		work += tr.Elapsed
	}
	if got.SourceQueries < 1 || got.SourceQueries != queries || got.TotalWork != work {
		t.Fatalf("partial counters: %d queries, %v work; the steps' traces sum to %d, %v", got.SourceQueries, got.TotalWork, queries, work)
	}
	if tr := got.Trace[got.FailedStep]; tr.Err == "" || tr.Index != got.FailedStep {
		t.Fatalf("trace entry of the failed step: %+v", tr)
	}
}

// TestFailoverAcrossReplicasStreaming runs the same dead-replica scenario
// through the streaming dataflow. A stream that lands on the dead endpoint
// dies mid-stream (stream opens carry no exchange; the first chunk does),
// which by design surfaces to the executor's whole-stream retry rather
// than failing over inside the fabric — the retry re-picks, the dead
// endpoint accumulates breaker failures, and selection converges on the
// survivor. The run must still produce the full answer.
func TestFailoverAcrossReplicasStreaming(t *testing.T) {
	pr, srcs, network, logical := replicatedDMVSetup(t, fabric.Options{NoSpeculation: true})
	network.ScheduleChurn([]netsim.ChurnEvent{
		{At: 0, Source: logical.Endpoints()[0].Name(), Kind: netsim.ChurnKill},
	})
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Budget: the dead endpoint can absorb at most the fabric's failure
	// threshold (3) of consecutive attempts before its breaker opens and
	// every later pick goes to the survivor.
	ex := &Executor{Sources: srcs, Network: network, Streaming: true, Retries: 3}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("streaming run with one dead replica: %v\nplan:\n%s", err, res.Plan)
	}
	if !got.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want the full answer %v", got.Answer, dmvAnswer)
	}
	if got.Retries+got.Failovers < 1 {
		t.Fatalf("retries=%d failovers=%d: the dead replica was never exercised", got.Retries, got.Failovers)
	}
}

// TestReplicatedSourceHealthySteadyState checks the no-churn baseline: a
// replicated roster behaves exactly like a flat one — full answer, no
// failovers, accounting intact.
func TestReplicatedSourceHealthySteadyState(t *testing.T) {
	pr, srcs, network, logical := replicatedDMVSetup(t, fabric.Options{NoSpeculation: true})
	res, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Network: network}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, res.Plan)
	}
	if !got.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want %v", got.Answer, dmvAnswer)
	}
	if got.Failovers != 0 || got.Hedges != 0 {
		t.Fatalf("healthy roster reported failovers=%d hedges=%d", got.Failovers, got.Hedges)
	}
	if !logical.Alive() {
		t.Fatal("healthy logical source reports not alive")
	}
	if got.TotalWork <= 0 || got.ResponseTime > got.TotalWork || stepWork(got) != got.TotalWork {
		t.Fatalf("timing = total %v / response %v, steps sum to %v", got.TotalWork, got.ResponseTime, stepWork(got))
	}
}

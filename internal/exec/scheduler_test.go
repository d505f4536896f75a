package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// failNthBinding wraps a source and injects one transient failure on the
// nth SelectBinding call, tracking per-item attempt counts.
type failNthBinding struct {
	source.Source
	mu      sync.Mutex
	n       int // 1-based call index to fail (once)
	calls   int
	fired   bool
	perItem map[string]int
}

func (f *failNthBinding) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	f.mu.Lock()
	f.calls++
	if f.perItem == nil {
		f.perItem = map[string]int{}
	}
	f.perItem[item]++
	fail := !f.fired && f.calls == f.n
	if fail {
		f.fired = true
	}
	f.mu.Unlock()
	if fail {
		return false, fmt.Errorf("source %s: injected: %w", f.Source.Name(), source.ErrTransient)
	}
	return f.Source.SelectBinding(ctx, c, item)
}

// maxInflight wraps a source and records the peak number of concurrent
// SelectBinding calls.
type maxInflight struct {
	source.Source
	mu       sync.Mutex
	inflight int
	peak     int
}

func (m *maxInflight) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	m.mu.Lock()
	m.inflight++
	if m.inflight > m.peak {
		m.peak = m.inflight
	}
	m.mu.Unlock()
	ok, err := m.Source.SelectBinding(ctx, c, item)
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
	return ok, err
}

var semijoinCaps = []source.Capabilities{{}, {PassedBindings: true}, {}}

// semijoinPlan pins a selection at source 0 followed by an emulated
// semijoin at source 1.
func semijoinPlan(conds []cond.Cond, sources []string) *plan.Plan {
	return &plan.Plan{
		Conds:   conds,
		Sources: sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSemijoin, Out: "B", Cond: 1, Source: 1, In: []string{"A"}},
		},
		Result: "B",
	}
}

// TestTransientBindingRetriesOnlyThatBinding checks the satellite retry
// semantics: when one binding query of an emulated semijoin fails
// transiently, only that binding is reissued — not the whole semijoin — and
// SourceQueries charges exactly the one extra attempt.
func TestTransientBindingRetriesOnlyThatBinding(t *testing.T) {
	// Baseline: no failure injection.
	pr, srcs, _ := dmvSetup(t, semijoinCaps)
	p := semijoinPlan(pr.Conds, pr.Sources)
	base, err := (&Executor{Sources: srcs}).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if base.SourceQueries < 3 {
		t.Fatalf("baseline issued %d queries; need >=2 bindings for the test to mean anything", base.SourceQueries)
	}

	// One connection issues the bindings one after another, two fan them out.
	for name, conns := range map[string]int{"sequential": 1, "parallel": 2} {
		t.Run(name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, semijoinCaps)
			inj := &failNthBinding{Source: srcs[1], n: 2}
			srcs[1] = inj
			ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, conns), Retries: 3}
			got, err := ex.Run(context.Background(), semijoinPlan(pr.Conds, pr.Sources))
			if err != nil {
				t.Fatalf("run with injected transient: %v", err)
			}
			if !inj.fired {
				t.Fatal("injection never fired; the test is vacuous")
			}
			if !got.Answer.Equal(base.Answer) {
				t.Fatalf("answer = %v, want %v", got.Answer, base.Answer)
			}
			// Exactly one extra attempt: the failed binding's retry.
			if got.SourceQueries != base.SourceQueries+1 {
				t.Fatalf("SourceQueries = %d, want %d (baseline %d + 1 retried binding)",
					got.SourceQueries, base.SourceQueries+1, base.SourceQueries)
			}
			retried, once := 0, 0
			for item, n := range inj.perItem {
				switch n {
				case 1:
					once++
				case 2:
					retried++
				default:
					t.Fatalf("item %s probed %d times; per-binding retry should reissue at most once", item, n)
				}
			}
			if retried != 1 {
				t.Fatalf("%d bindings retried, want exactly 1 (only the failed one)", retried)
			}
			if once != len(inj.perItem)-1 {
				t.Fatalf("%d bindings probed once, want %d", once, len(inj.perItem)-1)
			}
		})
	}
}

// TestTransientBindingFailsWithoutRetries checks fail-fast: with no retry
// budget, one transient binding failure fails the semijoin.
func TestTransientBindingFailsWithoutRetries(t *testing.T) {
	pr, srcs, network := dmvSetup(t, semijoinCaps)
	srcs[1] = &failNthBinding{Source: srcs[1], n: 1}
	ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, 2)}
	if _, err := ex.Run(context.Background(), semijoinPlan(pr.Conds, pr.Sources)); !source.IsTransient(err) {
		t.Fatalf("err = %v, want transient failure", err)
	}
}

// TestSchedulerBoundsConcurrency checks an emulated semijoin's fan-out from
// both sides: the peak number of in-flight binding queries at one source, seen
// below its instrumentation, never exceeds its link's MaxConns (the link's
// admission), and reaches it (the fan-out's workers do not serialize each
// other). The source answers a binding only once conns of them wait in it at
// once, so a fan-out that issues one binding after another runs to the guard.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	for _, conns := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("conns%d", conns), func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, semijoinCaps)
			held := heldUntilAsked([]source.Source{srcs[1].(*source.Instrumented).Source}, source.OpBinding, conns)
			probe := &maxInflight{Source: held[0]}
			srcs[1] = source.Instrument(probe, network)
			// D < 2000 selects all three of R1's licences: three bindings at R2.
			conds := []cond.Cond{cond.MustParse("D < 2000"), pr.Conds[1]}
			ctx, cancel := context.WithTimeout(context.Background(), guard)
			defer cancel()
			ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, conns)}
			got, err := ex.Run(ctx, semijoinPlan(conds, pr.Sources))
			if err != nil {
				t.Fatalf("run over a source that answers a binding only once %d are in flight: %v", conns, err)
			}
			if got.Answer.IsEmpty() {
				t.Fatal("empty answer; expected matches")
			}
			if probe.peak != conns {
				t.Fatalf("peak in-flight bindings = %d, want conns = %d", probe.peak, conns)
			}
		})
	}
}

// TestParallelTraceAttributesElapsed checks the trace under every scheduler:
// a step's Elapsed is what the exchanges it issued took, so steps that
// reached a source show nonzero time and the per-step times sum to the
// total work even when the steps ran concurrently.
func TestParallelTraceAttributesElapsed(t *testing.T) {
	for _, mode := range runModes {
		pr, srcs, network := dmvSetup(t, semijoinCaps)
		ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, 2), BatchSize: 1}
		mode.configure(ex)
		got, err := ex.Run(context.Background(), semijoinPlan(pr.Conds, pr.Sources))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range got.Trace {
			if tr.Queries > 0 && tr.Elapsed == 0 {
				t.Fatalf("%s: step %d issued %d queries but shows zero elapsed:\n%s",
					mode.name, tr.Index, tr.Queries, RenderTrace(got.Trace))
			}
		}
		if elapsed := stepWork(got); elapsed != got.TotalWork {
			t.Fatalf("%s: trace elapsed %v != total work %v", mode.name, elapsed, got.TotalWork)
		}
	}
}

// TestTraceElapsedIsExactWhenStepsShareASource: two selections of one round
// go to the same source with different payloads. Each step is charged its
// own exchange, not a share of the source's time.
func TestTraceElapsedIsExactWhenStepsShareASource(t *testing.T) {
	pr, srcs, network := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   []cond.Cond{cond.MustParse("V = 'dui'"), cond.MustParse("D < 2000")},
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "B", Cond: 1, Source: 0},
			{Kind: plan.KindUnion, Out: "R", Cond: -1, Source: -1, In: []string{"A", "B"}},
		},
		Result: "R",
	}
	for _, mode := range runModes {
		network.Reset()
		ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, 2)}
		mode.configure(ex)
		got, err := ex.Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		link := network.LinkFor(pr.Sources[0])
		// sq(V = 'dui') returns J55 and T80, sq(D < 2000) all three items.
		wantA, wantB := link.TransferTime(32+len("V = 'dui'"), 6), link.TransferTime(32+len("D < 2000"), 9)
		if got.Trace[0].Elapsed != wantA || got.Trace[1].Elapsed != wantB || wantA == wantB {
			t.Fatalf("%s: steps report %v and %v, their exchanges took %v and %v\nlog: %+v",
				mode.name, got.Trace[0].Elapsed, got.Trace[1].Elapsed, wantA, wantB, network.Log())
		}
	}
}

// stepWork is what a run's trace says its steps' exchanges took.
func stepWork(res *Result) time.Duration {
	var work time.Duration
	for _, tr := range res.Trace {
		work += tr.Elapsed
	}
	return work
}

// TestTrafficDoesNotDependOnOverlap: the cost model charges each source query
// on its own, so how many of a round's exchanges overlap may move when they
// happen and never what they are. Every plan class runs over links of one
// connection and of four, on the DMV setup and on a synthetic instance whose
// sources answer semijoins only by passed bindings (the binding fan-out is
// the one place the executor itself spreads a step over connections; a
// selective first condition on a slow link makes most classes pass
// bindings). Both runs give the same answer, source queries, total work and
// per-step elapsed time; response time stays within the total work and does
// not rise with the connections. TestParallelSemijoinMatchesSequential sweeps
// more connection counts over one plan.
func TestTrafficDoesNotDependOnOverlap(t *testing.T) {
	bindingsOnly := workload.SynthConfig{
		Seed: 7, NumSources: 3, TuplesPerSource: 400, Universe: 300,
		Selectivity: []float64{0.01, 0.8},
		Caps:        []source.Capabilities{{PassedBindings: true}},
	}
	slowLink := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 1024, RequestOverhead: 2 * time.Millisecond}
	setups := []struct {
		name  string
		build func() (*optimizer.Problem, []source.Source, *netsim.Network)
	}{
		{"dmv", func() (*optimizer.Problem, []source.Source, *netsim.Network) { return dmvSetup(t, nil) }},
		{"bindings", func() (*optimizer.Problem, []source.Source, *netsim.Network) {
			return synthOnNetwork(t, bindingsOnly, slowLink)
		}},
	}
	for _, setup := range setups {
		for _, algo := range optimizer.Algorithms {
			t.Run(setup.name+"/"+algo.Name, func(t *testing.T) {
				pr, srcs, network := setup.build()
				res, err := algo.Plan(pr)
				if err != nil {
					t.Fatal(err)
				}
				var runs [2]*Result
				for i, conns := range []int{1, 4} {
					ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, conns)}
					if runs[i], err = ex.Run(context.Background(), res.Plan); err != nil {
						t.Fatalf("conns=%d: %v\nplan:\n%s", conns, err, res.Plan)
					}
					if got := runs[i]; got.ResponseTime > got.TotalWork {
						t.Fatalf("conns=%d: response time %v exceeds total work %v", conns, got.ResponseTime, got.TotalWork)
					}
				}
				one, four := runs[0], runs[1]
				if !four.Answer.Equal(one.Answer) || four.SourceQueries != one.SourceQueries || four.TotalWork != one.TotalWork {
					t.Fatalf("over four connections: %d answer items, %d queries, %v of work; over one: %d, %d, %v",
						four.Answer.Len(), four.SourceQueries, four.TotalWork, one.Answer.Len(), one.SourceQueries, one.TotalWork)
				}
				for k := range one.Trace {
					if four.Trace[k].Elapsed != one.Trace[k].Elapsed {
						t.Fatalf("step %d took %v over four connections, %v over one\n%s", k, four.Trace[k].Elapsed, one.Trace[k].Elapsed, RenderTrace(four.Trace))
					}
				}
				if four.ResponseTime > one.ResponseTime {
					t.Fatalf("response time %v over four connections, %v over one", four.ResponseTime, one.ResponseTime)
				}
			})
		}
	}
}

// TestParallelSemijoinMatchesSequential checks that the reference run, over
// links of one connection, and runs over wider links issue the same
// exchanges: more connections overlap them but must not add, drop, or reorder
// any. On sources that answer semijoins only by passed bindings the binding
// queries of a step are independent exchanges, so with enough of them the
// simulated response time falls strictly as the per-source connections double.
func TestParallelSemijoinMatchesSequential(t *testing.T) {
	type setup func() ([]source.Source, *netsim.Network, *plan.Plan)
	// sweep runs the plan over links of each connection capacity in conns,
	// the first being the reference, and returns the response times.
	sweep := func(fresh setup, conns []int) []time.Duration {
		var ref *Result
		var responses []time.Duration
		for _, conns := range conns {
			srcs, network, p := fresh()
			got, err := (&Executor{Sources: srcs, Network: linkConns(network, p.Sources, conns)}).Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if got.ResponseTime > got.TotalWork {
				t.Fatalf("conns=%d: ResponseTime %v exceeds TotalWork %v", conns, got.ResponseTime, got.TotalWork)
			}
			if ref == nil {
				ref = got
			}
			if !got.Answer.Equal(ref.Answer) {
				t.Fatalf("conns=%d: answer = %v, want %v", conns, got.Answer, ref.Answer)
			}
			if got.SourceQueries != ref.SourceQueries {
				t.Fatalf("conns=%d: SourceQueries = %d, want %d", conns, got.SourceQueries, ref.SourceQueries)
			}
			if got.TotalWork != ref.TotalWork {
				t.Fatalf("conns=%d: TotalWork = %v, want %v", conns, got.TotalWork, ref.TotalWork)
			}
			responses = append(responses, got.ResponseTime)
		}
		return responses
	}

	sweep(func() ([]source.Source, *netsim.Network, *plan.Plan) {
		pr, srcs, network := dmvSetup(t, semijoinCaps)
		return srcs, network, semijoinPlan(pr.Conds, pr.Sources)
	}, []int{1, 4})

	conns := []int{1, 2, 4, 8}
	responses := sweep(func() ([]source.Source, *netsim.Network, *plan.Plan) {
		pr, srcs, network := synthOnNetwork(t, workload.SynthConfig{
			Seed: 7, NumSources: 2, TuplesPerSource: 300, Universe: 200,
			Selectivity: []float64{0.25, 0.3},
			Caps:        []source.Capabilities{{PassedBindings: true}},
		}, netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 4096, RequestOverhead: 2 * time.Millisecond})
		return srcs, network, semijoinPlan(pr.Conds, pr.Sources)
	}, conns)
	for i := 1; i < len(responses); i++ {
		if responses[i] >= responses[i-1] {
			t.Fatalf("conns=%d: ResponseTime %v not below conns=%d's %v", conns[i], responses[i], conns[i-1], responses[i-1])
		}
	}
}

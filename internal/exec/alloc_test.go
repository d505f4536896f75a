package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/racetest"
	"fusionq/internal/set"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// Bounds on the allocations of one run of the DMV SJA plan under each
// scheduler, rounds and the pipeline, with the step trace every run keeps
// (go1.24, linux/amd64: 30 and 83). A step's bookkeeping — its node, the
// iterators over its inputs, its ledger account and fabric call stats —
// lives in arrays of the run's, so what is left is the run's own and, in
// the pipeline, its edges and goroutines. When each step allocated its
// own, a run allocated 99 and 182; before every run kept its step trace,
// 168 and 278.
const (
	roundsAllocs   = 40
	pipelineAllocs = 90
)

// TestStepTraceAllocs pins what one run, step trace included, allocates.
func TestStepTraceAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		streaming bool
		limit     float64
	}{{"rounds", false, roundsAllocs}, {"pipeline", true, pipelineAllocs}} {
		t.Run(tc.name, func(t *testing.T) {
			ex := &Executor{Sources: srcs, Network: network, Streaming: tc.streaming}
			ctx := context.Background()
			var run *Result
			got := testing.AllocsPerRun(100, func() {
				if run, err = ex.Run(ctx, res.Plan); err != nil {
					t.Error(err)
				}
			})
			if len(run.Trace) != len(res.Plan.Steps) {
				t.Fatalf("trace has %d entries for %d steps", len(run.Trace), len(res.Plan.Steps))
			}
			if got > tc.limit {
				t.Fatalf("one run allocated %v times, want at most %v", got, tc.limit)
			}
			t.Logf("%v allocations, at most %v", got, tc.limit)
		})
	}
}

// tracedAllocsPerSpan bounds what tracing a run costs per span it records:
// its share of the trace's blocks, the trace and its Obs (0.38 on the DMV
// plan, whose 16 spans take one block). A span is its own context, so
// installing it makes nothing; when it took a context node, 1.38. Names,
// attribute values and error texts are not made until the trace is
// exported, which this run never asks for.
const tracedAllocsPerSpan = 0.5

// TestTracedRunAllocs runs the DMV SJA plan with and without a trace in its
// context and bounds the difference per recorded span.
func TestTracedRunAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	pr, srcs, network := dmvSetup(t, nil)
	res, err := optimizer.SJA(pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		streaming bool
	}{{"rounds", false}, {"pipeline", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ex := &Executor{Sources: srcs, Network: network, Streaming: tc.streaming}
			run := func(ctx context.Context) {
				if _, err := ex.Run(ctx, res.Plan); err != nil {
					t.Error(err)
				}
			}
			untraced := testing.AllocsPerRun(100, func() { run(context.Background()) })
			spans := 0
			traced := testing.AllocsPerRun(100, func() {
				tr := obs.NewTrace()
				run(obs.With(context.Background(), &obs.Obs{QueryID: "q-alloc", Trace: tr}))
				spans = tr.Len()
			})
			if spans == 0 {
				t.Fatal("the traced run recorded no span")
			}
			perSpan := (traced - untraced) / float64(spans)
			if perSpan > tracedAllocsPerSpan {
				t.Fatalf("tracing cost %.2f allocations per span (%v traced, %v untraced, %d spans), want at most %v",
					perSpan, traced, untraced, spans, tracedAllocsPerSpan)
			}
			t.Logf("%.2f allocations per span (%v traced, %v untraced, %d spans)", perSpan, traced, untraced, spans)
		})
	}
}

// Bounds on what a warm round-scheduled selection plan costs a run whose
// caller gives back what a served query does (go1.24, linux/amd64: 12–15
// KiB in 54 allocations). The byte bound leaves room for a pool that drops
// a buffer now and then, not for a running set that is never given back:
// without DropVars a run allocates 147 KiB. While each step allocated its
// own node, inputs and span context, a run allocated 111 times; before the
// ∪/∩/− outputs came from set's pool, 165–171 KiB in 116 allocations;
// before the round scheduler gave back its dead sets (lifetime.go), 540 KiB
// in 271.
const (
	selectionPlanBytes  = 64 << 10
	selectionPlanAllocs = 60
)

// TestSelectionPlanAllocs runs the FILTER plan of a 6-source × 3-condition
// synthetic problem, every step a selection or the mediator's ∪ and ∩, over
// in-process wrappers, round-scheduled, until the pools are warm, and bounds
// the bytes and allocations of one more run. The source answers and the
// unions come from set's pool, the answers go back after the round's union
// reads them, each round's intersection runs in place into the union before
// it, and the running sets and the answer go back once the run is over, so
// a run allocates little beyond its trace and accounting.
func TestSelectionPlanAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own and the pools drop puts; CI runs this without -race")
	}
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 7, NumSources: 6, TuplesPerSource: 2000, Universe: 4000,
		Selectivity: []float64{0.3, 0.5, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, src := range sc.Sources {
		profiles[j] = stats.ProfileFromLink(src.Name(), netsim.Link{Latency: time.Millisecond}, 8, stats.SupportOf(src.Caps()))
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Filter(&optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table})
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: sc.Sources}
	ctx := context.Background()
	// What a served query gives back: the running sets once the run has
	// succeeded (core), then the answer once it has been written (fqd).
	run := func() {
		r, err := ex.Run(ctx, res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		r.DropVars()
		if r.AnswerOwned {
			set.Release(r.Answer)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.1f KiB and %.0f allocations a run", bytes/1024, allocs)
	if bytes > selectionPlanBytes || allocs > selectionPlanAllocs {
		t.Fatalf("a run allocates %.1f KiB in %.0f allocations, want at most %d KiB and %d",
			bytes/1024, allocs, selectionPlanBytes>>10, selectionPlanAllocs)
	}
}

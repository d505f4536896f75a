package exec

import (
	"context"
	"testing"

	"fusionq/internal/optimizer"
)

// Allocations of one run of the DMV SJA plan under each scheduler, rounds and
// the pipeline, at the commit before every run kept its step trace, with the
// trace off. The trace every run now keeps may cost two more: its pre-sized
// entries and the tally of each step's elapsed time.
const (
	untracedRoundsAllocs   = 168
	untracedPipelineAllocs = 278
	traceAllocs            = 2
)

// TestStepTraceAllocs pins what keeping the step trace on every run costs.
func TestStepTraceAllocs(t *testing.T) {
	if raceDetector {
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
		untraced  float64
	}{{"rounds", false, untracedRoundsAllocs}, {"pipeline", true, untracedPipelineAllocs}} {
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
			if limit := tc.untraced + traceAllocs; got > limit {
				t.Fatalf("one run allocated %v times, %v untraced before every run kept its trace (+%d allowed)", got, tc.untraced, traceAllocs)
			}
			t.Logf("%v allocations, %v untraced before", got, tc.untraced)
		})
	}
}

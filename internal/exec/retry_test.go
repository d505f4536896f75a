package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// flakySetup wraps the DMV sources with failure injection at the given
// rate.
func flakySetup(t *testing.T, rate float64) (*optimizer.Problem, []source.Source, []*source.Flaky) {
	t.Helper()
	sc := workload.DMV()
	srcs := make([]source.Source, len(sc.Sources))
	flakies := make([]*source.Flaky, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, raw := range sc.Sources {
		flakies[j] = source.NewFlaky(raw, rate, int64(100+j))
		srcs[j] = flakies[j]
		profiles[j] = stats.SourceProfile{
			Name: raw.Name(), PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.01,
			Support: stats.SupportOf(raw.Caps()),
		}
	}
	// Statistics gathering must not hit failures: gather from the raw
	// sources.
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	return &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}, srcs, flakies
}

func TestRetriesSurviveTransientFailures(t *testing.T) {
	pr, srcs, flakies := flakySetup(t, 0.4)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Retries: 25}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("run with retries: %v", err)
	}
	if !got.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want %v", got.Answer, dmvAnswer)
	}
	failed := 0
	for _, f := range flakies {
		failed += f.Failures()
	}
	if failed == 0 {
		t.Fatal("failure injection never fired; the test is vacuous")
	}
}

func TestNoRetriesFailsFast(t *testing.T) {
	pr, srcs, _ := flakySetup(t, 1.0) // always fails
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs}
	if _, err := ex.Run(context.Background(), res.Plan); !source.IsTransient(err) {
		t.Fatalf("err = %v, want transient failure", err)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	pr, srcs, _ := flakySetup(t, 1.0)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Retries: 3}
	if _, err := ex.Run(context.Background(), res.Plan); !source.IsTransient(err) {
		t.Fatalf("err = %v, want transient failure after budget", err)
	}
}

// TestRetriesInParallelMode: each round of the FILTER plan asks its three
// flaky sources at once, so a selection fails and is retried while its
// siblings are in flight.
func TestRetriesInParallelMode(t *testing.T) {
	pr, srcs, _ := flakySetup(t, 0.3)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Sources: srcs, Retries: 25}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("overlapped run with retries: %v", err)
	}
	if !got.Answer.Equal(dmvAnswer) {
		t.Fatalf("answer = %v, want %v", got.Answer, dmvAnswer)
	}
}

// stubTransient always fails with a bare transient error and never checks
// its context — the worst case for a retry loop, which must then notice the
// dead context itself between attempts.
type stubTransient struct {
	source.Source
	calls  int
	onCall func(int)
}

func (s *stubTransient) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	s.calls++
	if s.onCall != nil {
		s.onCall(s.calls)
	}
	return set.Set{}, fmt.Errorf("stub %s: select: %w", s.Name(), source.ErrTransient)
}

// TestRetryLoopStopsWhenContextDies pins that an enormous retry budget does
// not outlive the caller: when the context is cancelled mid-retry against a
// source that keeps returning bare transient errors, the loop must stop at
// the next attempt boundary with a cancellation-classified error instead of
// burning the remaining budget — whichever entry point the exchange came
// through.
func TestRetryLoopStopsWhenContextDies(t *testing.T) {
	sc := workload.DMV()
	conds, names := sc.Conds[:1], []string{sc.Sources[0].Name()}
	profiles := stats.UniformProfiles(names, stats.SourceProfile{PerQuery: 10, PerItemSent: 1, PerItemRecv: 1})
	table, err := stats.BuildFromSources(context.Background(), conds, sc.Sources[:1], profiles)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(context.Context, *Executor) error{
		"planned": func(ctx context.Context, ex *Executor) error {
			_, err := ex.Run(ctx, &plan.Plan{
				Conds:   conds,
				Sources: names,
				Steps:   []plan.Step{{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0}},
				Result:  "A",
			})
			return err
		},
		"adaptive": func(ctx context.Context, ex *Executor) error {
			res, err := optimizer.Adaptive(&optimizer.Problem{Conds: conds, Sources: names, Table: table})
			if err != nil {
				return err
			}
			_, err = ex.Run(ctx, res.Plan)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			// The wait for a connection slot also notices a dead context,
			// but only when select happens to pick that case; the loop has
			// to notice by itself, every time.
			for i := 0; i < 16; i++ {
				stub := &stubTransient{Source: sc.Sources[0]}
				ctx, cancel := context.WithCancel(context.Background())
				stub.onCall = func(n int) {
					if n == 5 {
						cancel()
					}
				}
				err := run(ctx, &Executor{Sources: []source.Source{stub}, Retries: 1 << 30})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", err)
				}
				if stub.calls != 5 {
					t.Fatalf("%d attempts, want the loop to stop at the 5th, which cancelled", stub.calls)
				}
			}
		})
	}
}

func TestNonTransientErrorsNotRetried(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, []source.Capabilities{{}, {}, {}}) // selection-only
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSemijoin, Out: "B", Cond: 1, Source: 1, In: []string{"A"}},
		},
		Result: "B",
	}
	ex := &Executor{Sources: srcs, Retries: 10}
	if _, err := ex.Run(context.Background(), p); err == nil {
		t.Fatal("unsupported semijoin should fail despite retries")
	}
}

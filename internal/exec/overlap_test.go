package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// guard bounds the tests of this file: each would otherwise wait for ever on
// a tree that issues one exchange only after the one before it returned.
const guard = 2 * time.Second

// heldUntilAsked puts every source under a layer that holds its answer to op
// until op has been asked n times across them: a barrier, no clock. The n
// asks must all be waiting in the layer at once; later asks pass through.
func heldUntilAsked(srcs []source.Source, op source.Op, n int) []source.Source {
	var (
		mu    sync.Mutex
		asked int
		all   = make(chan struct{})
	)
	out := make([]source.Source, len(srcs))
	for j, src := range srcs {
		held := source.Over(src, func(ctx context.Context, call source.Call) (source.Reply, error) {
			if call.Op == op {
				mu.Lock()
				if asked++; asked == n {
					close(all)
				}
				mu.Unlock()
				select {
				case <-all:
				case <-ctx.Done():
					return source.Reply{}, fmt.Errorf("source %s: %s held until it is asked %d times at once: %w", src.Name(), op, n, ctx.Err())
				}
			}
			return source.Do(ctx, src, call)
		})
		out[j] = &held
	}
	return out
}

// TestFetchAnswerOverlaps: the second phase asks every source before it waits
// for any, and the relation is row for row the one that fetching from the
// sources in turn builds.
func TestFetchAnswerOverlaps(t *testing.T) {
	_, srcs, _ := dmvSetup(t, nil)
	want := relation.NewRelation(srcs[0].Schema())
	for _, src := range srcs {
		tuples, err := src.Fetch(context.Background(), dmvAnswer)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range tuples {
			if err := want.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	got, err := FetchAnswer(ctx, dmvAnswer, heldUntilAsked(srcs, source.OpFetch, len(srcs)))
	if err != nil {
		t.Fatalf("fetching from sources that answer only once all are asked: %v", err)
	}
	if fmt.Sprint(got.Rows()) != fmt.Sprint(want.Rows()) {
		t.Fatalf("records\n%s\nfetched in turn\n%s", got, want)
	}
}

// TestCombinedRemainderOverlaps: the FILTER plan's final round leaves each of
// the three DMV sources owing one answer item's records
// (TestRunCombinedSkipsCoveredFetches); the three remainder fetches of the
// records round are issued together.
func TestCombinedRemainderOverlaps(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	res, err := optimizer.Filter(pr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FetchAnswer(context.Background(), dmvAnswer, srcs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	ex := &Executor{Sources: heldUntilAsked(srcs, source.OpFetch, len(srcs))}
	run, err := ex.Run(ctx, withRecords(res.Plan, plan.FinalRecords))
	if err != nil {
		t.Fatalf("records run over sources that answer a fetch only once all are asked: %v", err)
	}
	if !run.Answer.Equal(dmvAnswer) || !sameTuples(run.Records, want) {
		t.Fatalf("answer %v, records\n%s\nwant %v and\n%s", run.Answer, run.Records, dmvAnswer, want)
	}
}

// TestFailedStepStopsItsBatch: a round of four selections in which R2 refuses
// at once and R3 and R4 answer only when told to stop. The run returns R2's
// refusal — never a sibling's cancellation — as soon as it has it, charges
// exactly the attempts that reached a source, and leaves no goroutine.
func TestFailedStepStopsItsBatch(t *testing.T) {
	sc, err := workload.Synth(workload.SynthConfig{Seed: 3, NumSources: 4, TuplesPerSource: 50, Universe: 80, Selectivity: []float64{0.4, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, src := range sc.Sources {
		profiles[j] = stats.SourceProfile{Name: src.Name(), PerQuery: 1, PerItemSent: 0.01, PerItemRecv: 0.01, ItemBytes: 8}
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Filter(&optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table})
	if err != nil {
		t.Fatal(err)
	}

	errRefused := errors.New("refused")
	var reached atomic.Int64
	srcs := make([]source.Source, len(sc.Sources))
	for j, src := range sc.Sources {
		l := source.Over(src, func(ctx context.Context, call source.Call) (source.Reply, error) {
			reached.Add(1)
			switch src.Name() {
			case "R2":
				return source.Reply{}, fmt.Errorf("source R2: %w", errRefused)
			case "R3", "R4":
				<-ctx.Done()
				return source.Reply{}, fmt.Errorf("source %s: %w", src.Name(), ctx.Err())
			}
			return source.Do(ctx, src, call)
		})
		srcs[j] = &l
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	run, err := (&Executor{Sources: srcs, Retries: 3}).Run(ctx, res.Plan)
	if ctx.Err() != nil {
		t.Fatalf("the batch ran to the guard: its siblings were not stopped when R2 failed (err = %v)", err)
	}
	if !errors.Is(err, errRefused) || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want R2's refusal and no sibling's cancellation", err)
	}
	if got := int(reached.Load()); run.SourceQueries != got || got < 1 || got > 4 {
		t.Fatalf("%d source queries charged, %d attempts reached a source (R2, and whichever siblings had started)", run.SourceQueries, got)
	}
	waitGoroutines(t, before)
}

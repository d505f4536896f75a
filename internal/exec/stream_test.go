package exec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// synthProblem builds a fresh synthetic workload plus its optimization
// problem, for differential materialized-vs-streaming runs.
func synthProblem(t *testing.T, cfg workload.SynthConfig) (*optimizer.Problem, []source.Source) {
	t.Helper()
	sc, err := workload.Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := stats.UniformProfiles(sc.SourceNames(), stats.SourceProfile{
		PerQuery: 10, PerItemSent: 0.5, PerItemRecv: 0.5, PerByteLoad: 0.001,
	})
	for j, src := range sc.Sources {
		profiles[j].Support = stats.SupportOf(src.Caps())
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatal(err)
	}
	return &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}, sc.Sources
}

// failsAfter is a source whose selections wait for gate and then fail.
type failsAfter struct {
	source.Source
	gate <-chan struct{}
}

func (f failsAfter) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	select {
	case <-f.gate:
		return set.Set{}, fmt.Errorf("source %s: gone", f.Name())
	case <-ctx.Done():
		return set.Set{}, ctx.Err()
	}
}

// opensGate is a source that opens gate once a selection's whole result has
// been handed to the executor: when Select returns, or when a stream of
// chunks is closed.
type opensGate struct {
	source.Source
	open func()
}

func (o opensGate) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	defer o.open()
	return o.Source.Select(ctx, c)
}

func (o opensGate) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	it, err := source.OpenSelectStream(ctx, o.Source, c, batch)
	if err != nil {
		return nil, err
	}
	return gateIter{Iter: it, open: o.open}, nil
}

type gateIter struct {
	set.Iter
	open func()
}

func (g gateIter) Close() error {
	g.open()
	return g.Iter.Close()
}

// TestHonestPartial: under either scheduler a permanently failing source
// fails the run with an empty answer and no first answer, while the traffic
// already paid for stays counted. In the "dead" rows the source fails at
// once. In the "late" rows the result is a three-item selection at a healthy
// source, streamed one item a batch, and the failing source (which feeds
// nothing) stalls until that selection has been handed over whole: the
// answer edge holds two batches, so under the pipeline the first batch has
// been drained by then. A run that never hands it over (a stream nobody
// closes) stalls to the guard.
func TestHonestPartial(t *testing.T) {
	sc := workload.DMV()
	conds := append(append([]cond.Cond(nil), sc.Conds...), cond.MustParse("D >= 1993")) // all of R1: J55, T21, T80
	dead := func() ([]source.Source, *plan.Plan) {
		srcs := append([]source.Source(nil), sc.Sources...)
		srcs[1] = source.NewFlaky(srcs[1], 1.0, 7) // every operation fails
		return srcs, &plan.Plan{
			Conds:   conds,
			Sources: sc.SourceNames(),
			Steps: []plan.Step{
				{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
				{Kind: plan.KindSelect, Out: "B", Cond: 1, Source: 1},
				{Kind: plan.KindUnion, Out: "U", Cond: -1, Source: -1, In: []string{"A", "B"}},
			},
			Result: "U",
		}
	}
	late := func() ([]source.Source, *plan.Plan) {
		gate := make(chan struct{})
		var once sync.Once
		srcs := append([]source.Source(nil), sc.Sources...)
		srcs[0] = opensGate{Source: srcs[0], open: func() { once.Do(func() { close(gate) }) }}
		srcs[1] = failsAfter{Source: srcs[1], gate: gate}
		return srcs, &plan.Plan{
			Conds:   conds,
			Sources: sc.SourceNames(),
			Steps: []plan.Step{
				{Kind: plan.KindSelect, Out: "A", Cond: 2, Source: 0},
				{Kind: plan.KindSelect, Out: "B", Cond: 1, Source: 1},
			},
			Result: "A",
		}
	}
	failures := []struct {
		name  string
		build func() ([]source.Source, *plan.Plan)
	}{{"dead", dead}, {"late", late}}
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, failure := range failures {
				t.Run(failure.name, func(t *testing.T) {
					srcs, p := failure.build()
					ex := &Executor{Sources: srcs, BatchSize: 1}
					mode.configure(ex)
					ctx, cancel := context.WithTimeout(context.Background(), guard)
					defer cancel()
					got, err := ex.Run(ctx, p)
					if ctx.Err() != nil {
						t.Fatalf("the run went to the guard instead of failing (err = %v)", err)
					}
					if err == nil {
						t.Fatal("run against a dead source should fail")
					}
					if !strings.Contains(err.Error(), "sq(") {
						t.Fatalf("error %q does not name the failing step", err)
					}
					if !got.Answer.IsEmpty() {
						t.Fatalf("failed run leaked a partial answer: %v", got.Answer)
					}
					if got.FirstAnswer != 0 {
						t.Fatalf("failed run reported FirstAnswer = %v", got.FirstAnswer)
					}
					if got.SourceQueries == 0 {
						t.Fatal("failed run must still report the queries it issued")
					}
					// Step 1 failed; in the pipeline its failure may cancel step 0
					// mid-flight, and FailedStep is the smallest failed index.
					if got.FailedStep < 0 || got.FailedStep > 1 {
						t.Fatalf("FailedStep = %d, want 1 (or 0, cancelled by it)", got.FailedStep)
					}
				})
			}
		})
	}
}

// TestCancellation: a cancelled context fails the run promptly and
// honestly under either scheduler (empty answer, wrapped context error, no
// leaked goroutines — the latter enforced by -race and the test exiting at
// all).
func TestCancellation(t *testing.T) {
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, nil)
			res, err := optimizer.SJA(pr)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ex := &Executor{Sources: srcs, Network: network}
			mode.configure(ex)
			got, err := ex.Run(ctx, res.Plan)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if !got.Answer.IsEmpty() {
				t.Fatalf("cancelled run leaked an answer: %v", got.Answer)
			}
		})
	}
}

// TestStreamingReducesPeakBytes: on a workload whose intermediates dwarf
// the answer, the streaming executor's peak mediator memory must come in
// under the materialized executor's, while the answers stay identical.
// Every continuation chunk is one more exchange paying the link's fixed
// costs, so across growing batches the simulated total work falls strictly
// toward the materialized figure, and plan.EstimateStreamCost — exact
// statistics, link-derived profiles — predicts it within a factor of two.
func TestStreamingReducesPeakBytes(t *testing.T) {
	pr, srcs, network := synthOnNetwork(t, workload.SynthConfig{
		Seed: 18, NumSources: 3, TuplesPerSource: 2000, Universe: 1000,
		Selectivity: []float64{0.5, 0.5, 0.5},
	}, netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 256 << 10, RequestOverhead: 2 * time.Millisecond})
	res, err := optimizer.SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	mat := &Executor{Sources: srcs, Network: network}
	matRes, err := mat.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	prevWork := time.Duration(0)
	for _, batch := range []int{32, 64, 512} {
		str := &Executor{Sources: srcs, Network: network, Streaming: true, BatchSize: batch}
		strRes, err := str.Run(context.Background(), res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !strRes.Answer.Equal(matRes.Answer) {
			t.Fatalf("batch %d: answers differ: streaming %d items, materialized %d", batch, strRes.Answer.Len(), matRes.Answer.Len())
		}
		if matRes.PeakBytes == 0 || strRes.PeakBytes == 0 {
			t.Fatalf("batch %d: peak bytes not accounted: materialized %d, streaming %d", batch, matRes.PeakBytes, strRes.PeakBytes)
		}
		if strRes.PeakBytes >= matRes.PeakBytes {
			t.Fatalf("batch %d: streaming peak %d not below materialized %d", batch, strRes.PeakBytes, matRes.PeakBytes)
		}
		if prevWork > 0 && strRes.TotalWork >= prevWork {
			t.Fatalf("batch %d: total work %v not below the smaller batch's %v", batch, strRes.TotalWork, prevWork)
		}
		prevWork = strRes.TotalWork
		est, err := plan.EstimateStreamCost(res.Plan, pr.Table, batch)
		if err != nil {
			t.Fatal(err)
		}
		ratio := est.Cost / strRes.TotalWork.Seconds()
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("batch %d: estimated %.3fs, measured %v: ratio %.2f outside [0.5, 2]", batch, est.Cost, strRes.TotalWork, ratio)
		}
		t.Logf("batch %d: peak %d B (materialized %d B), total work %v (materialized %v), %d queries, estimate/measured %.3f",
			batch, strRes.PeakBytes, matRes.PeakBytes, strRes.TotalWork, matRes.TotalWork, strRes.SourceQueries, ratio)
	}
}

// pullCounter is a source whose streamed selections count the items the
// mediator pulls.
type pullCounter struct {
	source.Source
	pulled atomic.Int64
}

func (s *pullCounter) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	it, err := source.OpenSelectStream(ctx, s.Source, c, batch)
	if err != nil {
		return nil, err
	}
	return &countedIter{Iter: it, pulled: &s.pulled}, nil
}

type countedIter struct {
	set.Iter
	pulled *atomic.Int64
}

func (it *countedIter) Next(ctx context.Context) ([]string, error) {
	batch, err := it.Iter.Next(ctx)
	it.pulled.Add(int64(len(batch)))
	return batch, err
}

// TestIntersectionAbandonsItsInput: in the pipeline X ∩ Y with Y empty ends
// at Y's end and abandons X's edge, its only consumer, part way, so X's
// stream stops long before it is drained. The order of the operands does
// not matter.
func TestIntersectionAbandonsItsInput(t *testing.T) {
	const n = 4096
	schema := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "A", Kind: relation.KindInt},
	)
	wide, none := relation.NewRelation(schema), relation.NewRelation(schema)
	for i := 0; i < n; i++ {
		wide.MustInsert(relation.String(workload.ItemName(i)), relation.Int(int64(i)))
	}
	none.MustInsert(relation.String(workload.ItemName(0)), relation.Int(-1))
	for _, tc := range []struct {
		name string
		in   []string
	}{
		{"abandoned", []string{"X", "Y"}},
		{"abandoned-swapped", []string{"Y", "X"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r1 := &pullCounter{Source: source.NewWrapper("r1", source.NewRowBackend(wide), source.Capabilities{})}
			r2 := source.NewWrapper("r2", source.NewRowBackend(none), source.Capabilities{})
			p := &plan.Plan{
				Conds:   []cond.Cond{cond.MustParse("A >= 0")},
				Sources: []string{"r1", "r2"},
				Steps: []plan.Step{
					{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 0},
					{Kind: plan.KindSelect, Out: "Y", Cond: 0, Source: 1},
					{Kind: plan.KindIntersect, Out: "Z", Cond: -1, Source: -1, In: tc.in},
				},
				Result: "Z",
			}
			ex := &Executor{Sources: []source.Source{r1, r2}, Streaming: true, BatchSize: 1}
			res, err := ex.Run(context.Background(), p)
			if err != nil || !res.Answer.IsEmpty() {
				t.Fatalf("X ∩ ∅ = %v, %v", res.Answer, err)
			}
			if pulled := r1.pulled.Load(); pulled >= n {
				t.Fatalf("the run pulled all %d items of X: its consumer never abandoned it", pulled)
			}
		})
	}
}

// TestStreamingHandlesReassignment: plans that reassign a variable (as the
// canonical filter plan does with X2 := X2 ∩ X1) read, at each use, the
// version current at that point (plan.Flow.In): each version has its own
// producing node in the pipeline and its own value between barriers.
func TestStreamingHandlesReassignment(t *testing.T) {
	pr, srcs, _ := dmvSetup(t, nil)
	p := &plan.Plan{
		Conds:   pr.Conds,
		Sources: pr.Sources,
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 0}, // {J55, T80}
			{Kind: plan.KindSemijoin, Out: "X", Cond: 1, Source: 1, In: []string{"X"}},
		},
		Result: "X",
	}
	for _, streaming := range []bool{true, false} {
		ex := &Executor{Sources: srcs, Streaming: streaming}
		got, err := ex.Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want := set.New("J55"); !got.Answer.Equal(want) {
			t.Fatalf("streaming %v: answer = %v, want %v", streaming, got.Answer, want)
		}
	}
}

// TestTeeGivesEachConsumerItsOwnBatch: an edge carries a copy of what was
// emitted, one for each consumer, so the producer may refill its buffer as
// soon as emit returns; each consumer's batch is lent until its next recv,
// and the bytes are tracked while the batch is buffered.
func TestTeeGivesEachConsumerItsOwnBatch(t *testing.T) {
	ctx := context.Background()
	tr := &byteTracker{}
	a, b := &streamEdge{}, &streamEdge{}
	a.init(tr)
	b.init(tr)
	a.bound, b.bound = 0, 0
	nd := &node{outs: []*streamEdge{a, b}, live: 2}
	buf := []string{"ID000001", "ID000002"}
	if err := nd.emit(ctx, buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = "refilled", "refilled"
	if tr.cur != 32 {
		t.Fatalf("%d bytes tracked with two batches of 16 buffered, want 32", tr.cur)
	}
	ga, err := a.recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ga) != "[ID000001 ID000002]" || fmt.Sprint(gb) != fmt.Sprint(ga) || &ga[0] == &gb[0] {
		t.Fatalf("the consumers received %v and %v, want two copies of the batch", ga, gb)
	}
	if tr.cur != 0 {
		t.Fatalf("%d bytes tracked after both consumers took their batch, want 0", tr.cur)
	}
	a.closeSend()
	if batch, err := a.recv(ctx); batch != nil || err != nil || a.lent != nil {
		t.Fatalf("recv at EOF = %v, %v and holds %v; want nothing", batch, err, a.lent)
	}
	b.abandonNow()
	if b.lent != nil {
		t.Fatal("an abandoned edge still lends a batch")
	}
}

// TestPipelinedAnswerIsOneExactSlice: the drain keeps the answer's batches
// until the end and then builds the answer in one slice, the pool's buffer
// for its size (set.Alloc: the least power of two that holds it, from 16),
// so a long answer in many small batches costs no growth by doubling, and
// the run's caller owns the buffer. So does the round scheduler's caller,
// whose answer is a buffer the run made for itself.
func TestPipelinedAnswerIsOneExactSlice(t *testing.T) {
	pr, srcs := synthProblem(t, workload.SynthConfig{
		Seed: 3, NumSources: 3, TuplesPerSource: 2000, Universe: 1000, Selectivity: []float64{0.9, 0.9},
	})
	res, err := optimizer.SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := (&Executor{Sources: srcs}).Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	str, err := (&Executor{Sources: srcs, Streaming: true, BatchSize: 4}).Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	items := str.Answer.Items()
	if !str.Answer.Equal(mat.Answer) || len(items) < 200 {
		t.Fatalf("streamed answer of %d items, materialized %d; the test wants the same few hundred", len(items), mat.Answer.Len())
	}
	if class := max(1<<bits.Len(uint(len(items)-1)), 16); cap(items) != class {
		t.Fatalf("an answer of %d items is in a slice of %d, want the pool's %d", len(items), cap(items), class)
	}
	if !str.AnswerOwned || !mat.AnswerOwned {
		t.Fatalf("the pipelined answer owned: %v, the round scheduler's: %v; want both", str.AnswerOwned, mat.AnswerOwned)
	}
}

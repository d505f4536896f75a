package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// The round scheduler gives its dead sets back to set's pool (lifetime.go).
// These tests run plans whose sets alias, escape or outlive a failure, each
// against a reference that copies every source answer and never releases
// one, again and again so that released buffers are taken and refilled.
// Under -race a released buffer reads as set.Recycled, so a set given back
// while something still read it shows as a wrong answer, or as a race.

// reference evaluates p step by step over copies: what the run must answer.
func reference(t *testing.T, p *plan.Plan, srcs []source.Source) set.Set {
	t.Helper()
	ctx := context.Background()
	vars := map[string]set.Set{}
	loaded := map[string]*relation.Relation{}
	own := func(s set.Set, err error) set.Set {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return set.New(s.Items()...)
	}
	for _, s := range p.Steps {
		var sets []set.Set
		for _, in := range s.In {
			sets = append(sets, vars[in])
		}
		var out set.Set
		switch s.Kind {
		case plan.KindSelect:
			out = own(srcs[s.Source].Select(ctx, p.Conds[s.Cond]))
		case plan.KindSemijoin:
			out = own(srcs[s.Source].Select(ctx, p.Conds[s.Cond])).Intersect(sets[0])
		case plan.KindLoad:
			rel, err := srcs[s.Source].Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			loaded[s.Out] = rel
			out = set.New(rel.Ordered().Items...)
		case plan.KindLocalSelect:
			out = own(source.SelectItems(loaded[s.In[0]], p.Conds[s.Cond]))
		case plan.KindUnion:
			out = set.UnionAll(sets...)
		case plan.KindIntersect:
			out = set.IntersectAll(sets...)
		case plan.KindDiff:
			out = sets[0].Diff(sets[1])
		default:
			t.Fatalf("reference: step kind %v", s.Kind)
		}
		vars[s.Out] = set.New(out.Items()...)
	}
	return vars[p.Result]
}

// runAgain runs p n times on each of two goroutines and checks every answer.
// Each run then gives back what a served query does: its running sets
// (DropVars), then its answer when the run owns it.
func runAgain(t *testing.T, ex *Executor, p *plan.Plan, want set.Set, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				res, err := ex.Run(context.Background(), p)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Answer.Equal(want) {
					t.Errorf("run %d: answer %v, want %v", i, res.Answer, want)
					return
				}
				giveBack(res)
			}
		}()
	}
	wg.Wait()
}

// giveBack gives back what core and fqd give back of a run that succeeded.
func giveBack(res *Result) {
	res.DropVars()
	if res.AnswerOwned {
		set.Release(res.Answer)
	}
}

// synthSources is a synthetic scenario's wrappers with no network: the
// in-process shape of the benchmark's planned execution.
func synthSources(t testing.TB, cfg workload.SynthConfig) (*workload.Scenario, []source.Source) {
	t.Helper()
	sc, err := workload.Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc, sc.Sources
}

// TestLifetimeUnionOfOne: a union with one non-empty input is a copy of
// it in a buffer of its own, so the source answer it read goes back when
// the union is over, the union's output when the intersection after it is,
// and the answer the intersection made is kept: no buffer goes back twice
// or while a later version still reads it.
func TestLifetimeUnionOfOne(t *testing.T) {
	sc, srcs := synthSources(t, workload.SynthConfig{Seed: 3, NumSources: 2, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.5, 0.5}})
	// A third source with nothing in it: its answer E is empty.
	srcs = append(srcs, source.NewWrapper("R3", source.NewRowBackend(relation.NewRelation(sc.Schema)), srcs[0].Caps()))
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: []string{srcs[0].Name(), srcs[1].Name(), "R3"},
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "E", Cond: 0, Source: 2},
			{Kind: plan.KindSelect, Out: "B", Cond: 0, Source: 1},
			{Kind: plan.KindUnion, Out: "U", Cond: -1, Source: -1, In: []string{"A", "E"}},
			{Kind: plan.KindIntersect, Out: "U", Cond: -1, Source: -1, In: []string{"U", "B"}},
			{Kind: plan.KindDiff, Out: "D", Cond: -1, Source: -1, In: []string{"U", "E"}},
		},
		Result: "D",
	}
	want := reference(t, p, srcs)
	if want.IsEmpty() {
		t.Fatal("the reference answer is empty; the test wants one")
	}
	ex := &Executor{Sources: srcs}
	res, err := ex.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Only the result is held: U's versions, A, E and B were all read.
	if len(res.Vars) != 1 || !res.Vars["D"].Equal(want) {
		t.Fatalf("Vars = %v, want only D = %v", res.Vars, want)
	}
	runAgain(t, ex, p, want, 20)
}

// TestLifetimeEveryClass: repeated runs of every plan class over one
// executor answer right, so no buffer a run gave back is one a later run
// still reads.
func TestLifetimeEveryClass(t *testing.T) {
	pr, srcs, network := synthOnNetwork(t, workload.SynthConfig{
		Seed: 5, NumSources: 4, TuplesPerSource: 500, Universe: 1000, Selectivity: []float64{0.3, 0.6, 0.8},
	}, netsim.Link{Latency: time.Millisecond, BytesPerSec: 1 << 20})
	ex := &Executor{Sources: srcs, Network: network}
	for _, pc := range optimizer.Algorithms {
		res, err := pc.Plan(pr)
		if err != nil {
			continue // not every class plans every problem
		}
		p := res.Plan
		if p.Adaptive != nil {
			p = &plan.Plan{Conds: p.Conds, Sources: p.Sources, Steps: p.Steps, Result: p.Result}
		}
		want := reference(t, p, srcs)
		t.Run(pc.Name, func(t *testing.T) { runAgain(t, ex, p, want, 3) })
	}
}

// lingering is a replica whose first semijoin is the straggler a hedge
// beats: it holds on to its semijoin set until the backup has answered, as
// a wire client still writing the set to its replica does, and then reads
// it whole.
type lingering struct {
	source.Source
	calls *atomic.Int32
	read  chan []string
}

func (l lingering) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	if l.calls.Add(1) > 1 {
		return l.Source.Semijoin(ctx, c, y)
	}
	<-ctx.Done() // the backup won
	runtime.Gosched()
	l.read <- append([]string(nil), y.Items()...)
	return set.Set{}, ctx.Err()
}

// TestLifetimeHedgedSemijoin: a semijoin's set goes to a source, and a
// hedged exchange's losing leg may still be reading it when the winner's
// answer is in. The set the round scheduler sent goes back to the pool
// once the semijoin's batch is over, and the fabric returns only after
// every leg has ended, so the losing leg reads it whole.
func TestLifetimeHedgedSemijoin(t *testing.T) {
	sc, raw := synthSources(t, workload.SynthConfig{Seed: 9, NumSources: 3, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.5, 0.5}})
	calls := &atomic.Int32{}
	read := make(chan []string, 1)
	var eps []*fabric.Endpoint
	for _, suffix := range []string{"-a", "-b"} {
		rep := source.NewWrapper(raw[0].Name()+suffix, source.NewRowBackend(sc.Relations[0]), raw[0].Caps())
		eps = append(eps, fabric.NewEndpoint(lingering{Source: rep, calls: calls, read: read}, 1))
	}
	logical, err := fabric.NewLogical(raw[0].Name(), eps, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough logical exchanges for the fabric to set a hedge deadline.
	for i := 0; i < 8; i++ {
		if _, err := logical.Select(context.Background(), sc.Conds[1]); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []source.Source{logical, raw[1], raw[2]}
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "A", Cond: 0, Source: 1},
			{Kind: plan.KindSemijoin, Out: "S", Cond: 0, Source: 0, In: []string{"A"}},
			{Kind: plan.KindSelect, Out: "B", Cond: 0, Source: 2},
			{Kind: plan.KindUnion, Out: "X", Cond: -1, Source: -1, In: []string{"S", "B"}},
		},
		Result: "X",
	}
	want := reference(t, p, raw)
	sent := reference(t, &plan.Plan{Conds: p.Conds, Sources: p.Sources, Steps: p.Steps[:1], Result: "A"}, raw)
	res, err := (&Executor{Sources: srcs}).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedges == 0 {
		t.Fatal("the semijoin was not hedged")
	}
	if !res.Answer.Equal(want) {
		t.Fatalf("answer %v, want %v", res.Answer, want)
	}
	if got := set.FromSorted(<-read); !got.Equal(sent) {
		t.Fatalf("the losing leg read %d items of its semijoin set, %d were sent", got.Len(), sent.Len())
	}
}

// failingSemijoin is a source whose semijoins fail for good.
type failingSemijoin struct{ source.Source }

var errGone = errors.New("replica set exhausted")

func (f failingSemijoin) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	return set.Set{}, fmt.Errorf("source %s: %w", f.Name(), errGone)
}

// TestLifetimeFailedRoundKeepsItsSeed: a round fails after the running set
// of the round before fed its semijoins. A repair seeds from that running
// set in Vars, so it is there, whole, while the round's dead selections
// are not.
func TestLifetimeFailedRoundKeepsItsSeed(t *testing.T) {
	sc, srcs := synthSources(t, workload.SynthConfig{Seed: 11, NumSources: 3, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.5, 0.5}})
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: plan.KindSelect, Out: "X13", Cond: 0, Source: 2},
			{Kind: plan.KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12", "X13"}},
			{Kind: plan.KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X22", Cond: 1, Source: 1, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X23", Cond: 1, Source: 2, In: []string{"X1"}},
			{Kind: plan.KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22", "X23"}},
		},
		Result: "X2",
	}
	seed := reference(t, &plan.Plan{Conds: p.Conds, Sources: p.Sources, Steps: p.Steps[:4], Result: "X1"}, srcs)
	failing := append([]source.Source(nil), srcs...)
	failing[2] = failingSemijoin{srcs[2]}
	ex := &Executor{Sources: failing}
	for i := 0; i < 20; i++ {
		res, err := ex.Run(context.Background(), p)
		if !errors.Is(err, errGone) || res.FailedStep < 4 {
			t.Fatalf("run %d: err %v, failed step %d; want the third semijoin's failure", i, err, res.FailedStep)
		}
		if got, ok := res.Vars["X1"]; !ok || !got.Equal(seed) {
			t.Fatalf("run %d: Vars[X1] = %v (held %v), want the running set %v", i, got, ok, seed)
		}
		for _, dead := range []string{"X11", "X12", "X13"} {
			if _, ok := res.Vars[dead]; ok {
				t.Fatalf("run %d: Vars holds %s, which the union read last", i, dead)
			}
		}
	}
}

// TestLifetimeDropVars: a successful run keeps its running set X1 in Vars
// and owns its answer. DropVars gives X1's buffer back — what it read
// before is gone, cleared or set.Recycled — and leaves the answer alone in
// Vars, whole.
func TestLifetimeDropVars(t *testing.T) {
	sc, srcs := synthSources(t, workload.SynthConfig{Seed: 11, NumSources: 3, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.5, 0.5}})
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: plan.KindSelect, Out: "X13", Cond: 0, Source: 2},
			{Kind: plan.KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12", "X13"}},
			{Kind: plan.KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X22", Cond: 1, Source: 1, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X23", Cond: 1, Source: 2, In: []string{"X1"}},
			{Kind: plan.KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22", "X23"}},
		},
		Result: "X2",
	}
	seed := reference(t, &plan.Plan{Conds: p.Conds, Sources: p.Sources, Steps: p.Steps[:4], Result: "X1"}, srcs)
	want := reference(t, p, srcs)
	if want.IsEmpty() {
		t.Fatal("the reference answer is empty; the test wants one")
	}
	res, err := (&Executor{Sources: srcs}).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	x1, ok := res.Vars["X1"]
	if !ok || !x1.Equal(seed) || len(res.Vars) != 2 || !res.Answer.Equal(want) || !res.AnswerOwned {
		t.Fatalf("Vars %v and answer owned %v; want X1 and X2, and the answer owned", res.Vars, res.AnswerOwned)
	}
	res.DropVars()
	if got, ok := res.Vars["X2"]; len(res.Vars) != 1 || !ok || !got.Equal(want) || !res.Answer.Equal(want) {
		t.Fatalf("after DropVars Vars = %v, answer %d items; want X2 alone, the answer whole", res.Vars, res.Answer.Len())
	}
	if x1.Equal(seed) {
		t.Fatal("X1 intact after DropVars")
	}
	set.Release(res.Answer)
}

// TestLifetimeAdaptive: an adaptive plan grows round by round, and each
// round's lifetimes are taken from the plan as it stands.
func TestLifetimeAdaptive(t *testing.T) {
	pr, srcs, network := synthOnNetwork(t, workload.SynthConfig{
		Seed: 13, NumSources: 4, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.4, 0.6, 0.8},
	}, netsim.Link{Latency: time.Millisecond, BytesPerSec: 1 << 20})
	ex := &Executor{Sources: srcs, Network: network}
	for i := 0; i < 10; i++ {
		res, err := ex.Run(context.Background(), adaptivePlan(t, pr))
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(t, res.Plan, srcs); !res.Answer.Equal(want) {
			t.Fatalf("run %d: answer %d items, its executed plan's reference %d", i, res.Answer.Len(), want.Len())
		}
		giveBack(res)
	}
}

// TestLifetimeLoadThenLocalSelect: a loaded relation's items are the
// relation's, never the pool's, and the local selections over it are the
// run's own, which go back once the intersection and the union have read
// them.
func TestLifetimeLoadThenLocalSelect(t *testing.T) {
	sc, srcs := synthSources(t, workload.SynthConfig{Seed: 17, NumSources: 2, TuplesPerSource: 600, Universe: 1200, Selectivity: []float64{0.5, 0.5}})
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0},
			{Kind: plan.KindLocalSelect, Out: "T", Cond: 0, Source: -1, In: []string{"F1"}},
			{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 1},
			{Kind: plan.KindIntersect, Out: "Y", Cond: -1, Source: -1, In: []string{"T", "X"}},
			{Kind: plan.KindLocalSelect, Out: "T2", Cond: 0, Source: -1, In: []string{"F1"}},
			{Kind: plan.KindUnion, Out: "Z", Cond: -1, Source: -1, In: []string{"Y", "T2", "F1"}},
		},
		Result: "Z",
	}
	want := reference(t, p, srcs)
	runAgain(t, &Executor{Sources: srcs}, p, want, 20)
}

// loadedView is one source, R1, over a relation of 1 024 rows on 512
// items, and a second, R2, whose 1 024 items are R1's and as many more:
// R1's ordered view holds 512 items, a pool class, so a release would
// recycle it (to set.Recycled under -race). It returns the sources, R1's
// view and a copy of its items.
func loadedView(t *testing.T) ([]source.Source, *relation.Ordered, []string) {
	t.Helper()
	schema := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "A", Kind: relation.KindInt})
	loaded, other := relation.NewRelation(schema), relation.NewRelation(schema)
	for i := 0; i < 1024; i++ {
		loaded.MustInsert(relation.String(fmt.Sprintf("L%04d", i/2)), relation.Int(int64(i%100)))
		other.MustInsert(relation.String(fmt.Sprintf("L%04d", i)), relation.Int(int64(i%100)))
	}
	srcs := []source.Source{
		source.NewWrapper("R1", source.NewRowBackend(loaded), source.Capabilities{}),
		source.NewWrapper("R2", source.NewRowBackend(other), source.Capabilities{}),
	}
	view := loaded.Ordered()
	if cap(view.Items) != 512 {
		t.Fatalf("the view holds %d items, want 512", cap(view.Items))
	}
	return srcs, view, slices.Clone(view.Items)
}

// TestLifetimeLoadLeavesTheViewAlone: a load's items are the ordered view
// its source's backend holds (source.Wrapper.Load shares it), so no run may
// give them back: not when the answer is the loaded items, a union of
// them, or an intersection with them, under either scheduler, and not when
// the run's running sets are dropped.
func TestLifetimeLoadLeavesTheViewAlone(t *testing.T) {
	srcs, view, items := loadedView(t)
	load := plan.Step{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0}
	steps := map[string][]plan.Step{
		"answer": {load},
		"union": {
			load,
			{Kind: plan.KindLocalSelect, Out: "T", Cond: 1, Source: -1, In: []string{"F1"}},
			{Kind: plan.KindUnion, Out: "Z", Cond: -1, Source: -1, In: []string{"T", "F1"}},
		},
		"intersect": {
			load,
			{Kind: plan.KindSelect, Out: "X", Cond: 0, Source: 1},
			{Kind: plan.KindIntersect, Out: "Z", Cond: -1, Source: -1, In: []string{"F1", "X"}},
		},
	}
	for _, name := range []string{"answer", "union", "intersect"} {
		p := &plan.Plan{
			Conds:   []cond.Cond{cond.MustParse("A < 30"), cond.MustParse("A < 0")},
			Sources: []string{"R1", "R2"},
			Steps:   steps[name],
			Result:  steps[name][len(steps[name])-1].Out,
		}
		want := reference(t, p, srcs)
		for _, mode := range runModes {
			ex := &Executor{Sources: srcs}
			mode.configure(ex)
			runAgain(t, ex, p, want, 10)
			if !slices.Equal(view.Items, items) {
				t.Fatalf("%s/%s: the backend's view lost its items (now %q...)", name, mode.name, view.Items[:2])
			}
		}
	}
}

// TestLifetimeUnionOfALoadIsOwned: a union over one load's items is a copy
// of them, so the round scheduler owns its answer though the items it read
// are the backend's: the caller gives the answer back, and the source's
// ordered view still reads its items.
func TestLifetimeUnionOfALoadIsOwned(t *testing.T) {
	srcs, view, items := loadedView(t)
	p := &plan.Plan{
		Conds:   []cond.Cond{cond.MustParse("A < 30")},
		Sources: []string{"R1", "R2"},
		Steps: []plan.Step{
			{Kind: plan.KindLoad, Out: "F1", Cond: -1, Source: 0},
			{Kind: plan.KindUnion, Out: "Z", Cond: -1, Source: -1, In: []string{"F1"}},
		},
		Result: "Z",
	}
	for i := 0; i < 10; i++ {
		res, err := (&Executor{Sources: srcs}).Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AnswerOwned || !slices.Equal(res.Answer.Items(), items) {
			t.Fatalf("run %d: answer of %d items, owned %v; want the view's %d, owned", i, res.Answer.Len(), res.AnswerOwned, len(items))
		}
		giveBack(res)
		if !slices.Equal(view.Items, items) {
			t.Fatalf("run %d: giving the answer back took the view's items (now %q...)", i, view.Items[:2])
		}
	}
}

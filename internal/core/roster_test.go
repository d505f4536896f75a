package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// TestFailedRegistrationLeavesLinkAlone: a registration the mediator rejects
// changes nothing, the network's link of the registered source of that name
// included, whether the newcomer is plain or a replica group.
func TestFailedRegistrationLeavesLinkAlone(t *testing.T) {
	sc := workload.DMV()
	m := New(sc.Schema)
	network := netsim.NewNetwork(1)
	m.SetNetwork(network)
	registered := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 50000, MaxConns: 2}
	other := netsim.Link{Latency: time.Second, BytesPerSec: 1, MaxConns: 7}
	r1, r2 := sc.Sources[0], sc.Sources[1]
	if err := m.AddSourceLink(r1, registered); err != nil {
		t.Fatal(err)
	}
	epoch := m.Epoch()

	if err := m.AddSourceLink(r1, other); err == nil {
		t.Fatal("a second source named R1 was registered")
	}
	// R1 again as a replica: the group's name is free, its second member is
	// one endpoint twice, which the fabric refuses.
	replicas := []ReplicaSpec{{Source: r1, Link: other}, {Source: r1, Link: other}}
	if _, err := m.AddReplicatedSource("G", replicas, fabric.Options{}); err == nil {
		t.Fatal("a replica group naming one endpoint twice was registered")
	}
	// A group whose name is taken, over a replica of its own.
	if _, err := m.AddReplicatedSource(r1.Name(), []ReplicaSpec{{Source: r2, Link: other}}, fabric.Options{}); err == nil {
		t.Fatal("a replica group named R1 was registered")
	}

	if got := network.LinkFor(r1.Name()); got != registered {
		t.Errorf("after the rejected registrations R1's link is %+v, registered with %+v", got, registered)
	}
	if got := network.LinkFor(r2.Name()); got == other {
		t.Errorf("the rejected group's replica %s got its link %+v", r2.Name(), got)
	}
	if m.Epoch() != epoch || !reflect.DeepEqual(m.SourceNames(), []string{r1.Name()}) {
		t.Errorf("the rejected registrations left epoch %d, sources %v; want %d, [R1]", m.Epoch(), m.SourceNames(), epoch)
	}
}

// TestRosterHeldAcrossChurn: queries run while the roster churns under them
// (R4 leaving and joining again, the epoch bumped in between), and each
// answer is the reference answer over the roster its plan names, with and
// without the source-answer cache. What Sources and SourceNames return is
// the caller's to scribble on. Run with -race.
func TestRosterHeldAcrossChurn(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 9, NumSources: 4, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.3, 0.6}})
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	for j, src := range sc.Sources {
		if err := m.AddSourceLink(src, benchLink(j)); err != nil {
			t.Fatal(err)
		}
	}
	without := *sc
	without.Relations = sc.Relations[:3]
	ref := map[int]set.Set{4: groundTruth(t, sc), 3: groundTruth(t, &without)}
	if ref[3].Equal(ref[4]) {
		t.Fatalf("R4 does not change the answer %v; the test tells nothing apart", ref[4])
	}

	stop := make(chan struct{})
	var churn, queries sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		last := sc.Sources[3]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if !m.RemoveSource(last.Name()) {
				t.Errorf("round %d: R4 was not there to remove", i)
				return
			}
			m.BumpEpoch()
			if err := m.AddSourceLink(last, benchLink(3)); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srcs := m.Sources()
			for i := range srcs {
				srcs[i] = nil
			}
			names := m.SourceNames()
			for i := range names {
				names[i] = "scribbled"
			}
		}
	}()

	var seen [2]atomic.Int64 // queries planned over three sources, over four
	for g := 0; g < 4; g++ {
		queries.Add(1)
		go func(g int) {
			defer queries.Done()
			opts := Options{Algorithm: AlgoSJA}
			for i := 0; i < 25; i++ {
				ans, err := m.QueryCondsContext(t.Context(), sc.Conds, opts)
				if err != nil {
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				names := ans.Plan.Sources
				seen[len(names)-3].Add(1)
				want, ok := ref[len(names)]
				if !ok || !reflect.DeepEqual(names, sc.SourceNames()[:len(names)]) {
					t.Errorf("worker %d query %d planned over %v", g, i, names)
					return
				}
				if !ans.Items.Equal(want) {
					t.Errorf("worker %d query %d over %v: %d items, the reference over that roster has %d",
						g, i, names, ans.Items.Len(), want.Len())
					return
				}
			}
		}(g)
	}
	queries.Wait()
	close(stop)
	churn.Wait()
	t.Logf("%d queries ran without R4, %d with it", seen[0].Load(), seen[1].Load())
}

// TestTakingTheRosterAllocatesNothing: a query's roster is a load of the
// published pointer.
func TestTakingTheRosterAllocatesNothing(t *testing.T) {
	m := dmvMediator(t, true)
	var sources int
	got := testing.AllocsPerRun(100, func() {
		sources += len(m.cur.Load().sources)
	})
	if got != 0 || sources != 101*3 {
		t.Fatalf("taking the roster: %v allocations (%d sources seen over 101 runs), want none", got, sources)
	}
}

// TestStaleRosterQueryDoesNotFeedTheNewEpoch: queries that hold the roster of
// an epoch gone by learn that roster's summaries, single-flight among
// themselves, and the new epoch still pays its own stats exchange a source.
func TestStaleRosterQueryDoesNotFeedTheNewEpoch(t *testing.T) {
	sc := synth(t, workload.SynthConfig{Seed: 5, NumSources: 3, TuplesPerSource: 300, Universe: 400, Selectivity: []float64{0.3, 0.6}})
	m, counters := countedMediator(t, sc)
	statsCalls := func() []int { return statsCallsOf(counters) }
	old := m.cur.Load()
	epoch := m.BumpEpoch()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = m.plan(t.Context(), old, distinctConds(k), Options{})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("plan %d on the old roster: %v", k, err)
		}
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("8 concurrent plans on the old roster made %v stats exchanges by source, want one each", got)
	}
	if names, at := catalogNames(m); at != epoch || len(names) != 0 {
		t.Fatalf("the old roster's plans left %v in the catalog of epoch %d", names, at)
	}

	if _, err := m.Plan(t.Context(), distinctConds(8), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{2, 2, 2}) {
		t.Fatalf("the new epoch's first plan: %v stats exchanges by source in all, want its own one each", got)
	}
	for _, r := range []*roster{old, m.cur.Load()} {
		if _, err := m.plan(t.Context(), r, distinctConds(9), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := statsCalls(); !reflect.DeepEqual(got, []int{2, 2, 2}) {
		t.Fatalf("plans over warm rosters of both epochs made stats exchanges: %v", got)
	}
}

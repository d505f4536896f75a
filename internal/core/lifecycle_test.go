package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// stalledMediator builds a three-source synthetic scenario whose last
// source answers selections promptly but stalls every native semijoin for
// stall — the statistics exchange and the first round complete, then the
// query wedges until a deadline cuts it loose.
func stalledMediator(t *testing.T, stall time.Duration) *Mediator {
	t.Helper()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 17, NumSources: 3, TuplesPerSource: 300, Universe: 200,
		Selectivity: []float64{0.05, 0.5},
		Caps:        []source.Capabilities{{NativeSemijoin: true, PassedBindings: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(17))
	for j, raw := range sc.Sources {
		src := raw
		if j == len(sc.Sources)-1 && stall > 0 {
			src = source.NewFlaky(raw, 0, 17).SetStallFor("sjq", stall)
		}
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestOptionsTimeoutReturnsPartialWork is the acceptance check for the
// query lifecycle: a query whose context carries a deadline, against a source
// that hangs mid-plan, returns around the deadline — not after the 10s stall —
// with errors.Is identifying context.DeadlineExceeded through every
// decorator layer and a non-nil Answer charging the source queries that
// were issued before the cutoff.
func TestOptionsTimeoutReturnsPartialWork(t *testing.T) {
	const stall = 10 * time.Second
	m := stalledMediator(t, stall)
	conds := mustConds(t)

	ctx, cancel := context.WithTimeout(t.Context(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, err := m.QueryCondsContext(ctx, conds, Options{Algorithm: "sja"})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("query against stalled source completed despite the timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
	if elapsed >= stall/2 {
		t.Fatalf("returned in %v; the deadline did not cut the %v stall", elapsed, stall)
	}
	if ans == nil || ans.Exec == nil {
		t.Fatalf("abandoned query lost its partial accounting: %+v", ans)
	}
	if ans.Exec.SourceQueries == 0 {
		t.Fatal("partial Answer reports zero source queries; round 1 had completed")
	}
}

// TestCallerCancelPropagates checks the other half of the lifecycle: an
// explicit caller cancel (no deadline) unwinds the same way, with
// errors.Is(err, context.Canceled).
func TestCallerCancelPropagates(t *testing.T) {
	m := stalledMediator(t, 10*time.Second)
	conds := mustConds(t)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := m.QueryCondsContext(ctx, conds, Options{Algorithm: "sja"})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("cancel returned after %v", elapsed)
	}
}

func mustConds(t *testing.T) []cond.Cond {
	t.Helper()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 17, NumSources: 3, TuplesPerSource: 300, Universe: 200,
		Selectivity: []float64{0.05, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc.Conds
}

// TestConcurrentQueries runs many queries against one mediator at once
// (plus epoch churn) and checks every answer is correct; run under -race
// this is the mediator's concurrency-safety proof.
func TestConcurrentQueries(t *testing.T) {
	m := dmvMediator(t, true)
	want := set.New("J55", "T21")

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := Options{Algorithm: "sja+"}
			for i := 0; i < 5; i++ {
				ans, err := m.Query(context.Background(), paperSQL, opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", g, i, err)
					return
				}
				if !ans.Items.Equal(want) {
					errs <- fmt.Errorf("worker %d query %d: answer %v, want %v", g, i, ans.Items, want)
					return
				}
			}
		}(g)
	}
	// Churn the shared state the queries snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			m.BumpEpoch()
			_ = m.Sources()
			_ = m.SourceNames()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOverlappingQueriesAccountTheirOwnWork: queries that overlap on one
// mediator, over a network where exchanges take real time, each report the
// work, the response time and the source queries the same query reports
// alone, with a cold query's planning running beside them. Run with -race.
func TestOverlappingQueriesAccountTheirOwnWork(t *testing.T) {
	opts := Options{Algorithm: AlgoSJA}
	m := dmvMediatorConns(t, true, 2)
	alone, err := m.QueryCondsContext(context.Background(), paperConds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Exec.TotalWork <= 0 || alone.Exec.ResponseTime <= 0 {
		t.Fatalf("the query alone reports work %v, response %v", alone.Exec.TotalWork, alone.Exec.ResponseTime)
	}
	m.Network().SetRealTime(0.05)

	ctx, stop := context.WithCancel(context.Background())
	var planner sync.WaitGroup
	planner.Add(1)
	go func() {
		defer planner.Done()
		other := []cond.Cond{cond.MustParse("D < 1995"), cond.MustParse("V = 'sp'")}
		for ctx.Err() == nil {
			if _, err := m.Problem(ctx, other, opts); err != nil && ctx.Err() == nil {
				t.Errorf("planning beside the queries: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ans, err := m.QueryCondsContext(ctx, paperConds, opts)
				if err != nil {
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				got, want := ans.Exec, alone.Exec
				if got.TotalWork != want.TotalWork || got.ResponseTime != want.ResponseTime || got.SourceQueries != want.SourceQueries {
					t.Errorf("worker %d query %d: work %v, response %v, %d queries; alone %v, %v, %d",
						g, i, got.TotalWork, got.ResponseTime, got.SourceQueries,
						want.TotalWork, want.ResponseTime, want.SourceQueries)
				}
			}
		}(g)
	}
	wg.Wait()
	stop()
	planner.Wait()
}

// peakCounter notes the most calls it has had in flight at once.
type peakCounter struct {
	mu        sync.Mutex
	now, peak int
}

func (p *peakCounter) enter() {
	p.mu.Lock()
	p.now++
	p.peak = max(p.peak, p.now)
	p.mu.Unlock()
}

func (p *peakCounter) leave() {
	p.mu.Lock()
	p.now--
	p.mu.Unlock()
}

// TestLinkBoundsEveryCallerAcrossQueries: a source's link admits MaxConns
// exchanges at a time whoever asks. Four overlapping queries (two of them
// with emulated semijoins, one exchange per binding), a phase-two fetch and a
// cold catalog fill run at once through one Mediator; every source holds each
// call about 2 ms below its instrumentation and notes how many it holds at
// once, which never exceeds its link's connections.
func TestLinkBoundsEveryCallerAcrossQueries(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("conns%d", conns), func(t *testing.T) {
			sc := workload.DMV()
			m := New(sc.Schema)
			m.SetNetwork(netsim.NewNetwork(1))
			link := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 50000, RequestOverhead: 2 * time.Millisecond, MaxConns: conns}
			peaks := make([]*peakCounter, len(sc.Sources))
			for j, src := range sc.Sources {
				p := &peakCounter{}
				peaks[j] = p
				inner := source.NewWrapper(src.Name(), source.NewRowBackend(sc.Relations[j]), source.Capabilities{PassedBindings: true})
				held := source.Over(inner, func(ctx context.Context, call source.Call) (source.Reply, error) {
					p.enter()
					defer p.leave()
					time.Sleep(2 * time.Millisecond)
					return source.Do(ctx, inner, call)
				})
				if err := m.AddSourceLink(&held, link); err != nil {
					t.Fatal(err)
				}
			}

			want := set.New("J55", "T21")
			var wg sync.WaitGroup
			run := func(what string, f func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f(); err != nil {
						t.Errorf("%s: %v", what, err)
					}
				}()
			}
			for q, algo := range []Algorithm{AlgoFilter, AlgoSJA, AlgoFilter, AlgoSJA} {
				run(fmt.Sprintf("query %d (%s)", q, algo), func() error {
					ans, err := m.Query(t.Context(), paperSQL, Options{Algorithm: algo})
					if err == nil && !ans.Items.Equal(want) {
						err = fmt.Errorf("answer %v, want %v", ans.Items, want)
					}
					return err
				})
			}
			run("fetch", func() error {
				_, err := m.Fetch(t.Context(), want)
				return err
			})
			run("catalog fill", func() error {
				m.BumpEpoch()
				_, err := m.Problem(t.Context(), paperConds, Options{})
				return err
			})
			wg.Wait()
			for j, p := range peaks {
				if p.peak > conns {
					t.Errorf("%s held %d calls at once, its link has %d connections", sc.Sources[j].Name(), p.peak, conns)
				}
			}
		})
	}
}

package netsim_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// TestLanePoolFollowsTheLink: a source's pool is as large as its link says
// when an exchange asks, so a SetLink after the first exchange resizes it —
// growing admits a waiter at once, shrinking holds the next one back — and a
// waiter whose context ends returns the context's error and leaves nothing
// held behind it.
func TestLanePoolFollowsTheLink(t *testing.T) {
	n := netsim.NewNetwork(1)
	n.SetLink("R1", netsim.Link{MaxConns: 1})
	ctx := t.Context()
	if err := n.Acquire(ctx, "R1"); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- n.Acquire(ctx, "R1") }()
	select {
	case err := <-admitted:
		t.Fatalf("admitted (err %v) past a one-connection link's held connection", err)
	case <-time.After(20 * time.Millisecond):
	}
	n.SetLink("R1", netsim.Link{MaxConns: 2})
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a second connection on the link did not admit the waiting exchange")
	}
	n.Release("R1")
	n.Release("R1")

	n.SetLink("R1", netsim.Link{MaxConns: 1})
	if err := n.Acquire(ctx, "R1"); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := n.Acquire(wctx, "R1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a waiter whose deadline passed got %v, want its context's error", err)
	}
	n.Release("R1")
	// The abandoned wait holds nothing: the one connection is free again.
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := n.Acquire(fctx, "R1"); err != nil {
		t.Fatalf("the connection is not free after its holder released it: %v", err)
	}
	n.Release("R1")
}

// TestLanePoolLeavesGaugesAtZero: selections, streamed selections and
// exchanges whose deadline ends while they queue, all at once through the
// instrumentation on a two-connection real-time link: afterwards nothing
// waits and nothing holds a connection on the queue-depth and lane-occupancy
// gauges.
func TestLanePoolLeavesGaugesAtZero(t *testing.T) {
	sc := workload.DMV()
	n := netsim.NewNetwork(1)
	n.SetLink("R1", netsim.Link{Latency: time.Millisecond, MaxConns: 2})
	n.SetRealTime(1)
	reg := obs.NewRegistry()
	ctx := obs.With(t.Context(), &obs.Obs{Metrics: reg})
	src := source.Instrument(sc.Sources[0], n)
	c := cond.MustParse("V = 'dui'")

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if _, err := src.Select(ctx, c); err != nil {
					t.Error(err)
				}
			case 1:
				it, err := source.OpenSelectStream(ctx, src, c, 1)
				if err == nil {
					_, err = set.Collect(ctx, it)
					it.Close()
				}
				if err != nil {
					t.Error(err)
				}
			default:
				short, cancel := context.WithTimeout(ctx, time.Millisecond)
				defer cancel()
				// Admitted before its deadline or not, it must leave no trace.
				_, _ = src.Select(short, c)
			}
		}()
	}
	wg.Wait()
	for _, gauge := range []string{obs.MSchedQueueDepth, obs.MSchedLaneOccupancy} {
		if got := reg.Gauge(gauge, "source", "R1").Value(); got != 0 {
			t.Errorf("%s = %d after every exchange returned", gauge, got)
		}
	}
}

// TestAdmissionAllocatesNothing: once a source's pool exists, taking and
// giving back a connection allocates nothing.
func TestAdmissionAllocatesNothing(t *testing.T) {
	n := netsim.NewNetwork(1)
	ctx := t.Context()
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.Acquire(ctx, "R1"); err != nil {
			t.Fatal(err)
		}
		n.Release("R1")
	})
	if allocs != 0 {
		t.Fatalf("an admission allocates %v times", allocs)
	}
}

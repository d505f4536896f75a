package core

import (
	"context"
	"runtime"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/racetest"
	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// The bound on what a warm planned query costs, answer given back (go1.24,
// linux/amd64: about 47 KiB in 350 allocations a query). It leaves room
// for a pool that drops a buffer now and then, not for a running set that is
// never given back: without Result.DropVars in execute, a query allocates
// about 176 KiB, and before the round scheduler's ∪, ∩ and − came from set's
// pool, about 206 KiB.
const plannedQueryBytes = 96 << 10

// TestPlannedQueryAllocs runs a plan the mediator made once, as a service
// whose plan cache hits does: six sources of 2 000 tuples, three
// conditions, the default algorithm, a simulated network and the default
// flight recorder. The caller gives the answer back when it owns it, as fqd
// does once the answer is written; the bound is on the bytes of one query
// with the pools warm.
func TestPlannedQueryAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own and the pools drop puts; CI runs this without -race")
	}
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 2, NumSources: 6, TuplesPerSource: 2000, Universe: 4000,
		Selectivity: []float64{0.3, 0.5, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	for j, src := range sc.Sources {
		if err := m.AddSourceLink(src, benchLink(j)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	conds := []cond.Cond{sc.Conds[0], sc.Conds[1], sc.Conds[2]}
	planned, err := m.Plan(ctx, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		ans, err := m.QueryPlannedContext(ctx, conds, planned, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Items.IsEmpty() {
			t.Fatal("an empty answer tells nothing about the sets the run held")
		}
		if ans.Owned {
			set.Release(ans.Items)
		}
	}
	for i := 0; i < 20; i++ {
		query()
	}
	const queries = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / queries
	allocs := float64(after.Mallocs-before.Mallocs) / queries
	t.Logf("%.1f KiB in %.0f allocations a query", bytes/1024, allocs)
	if bytes > plannedQueryBytes {
		t.Fatalf("a planned query allocates %.1f KiB, want at most %d KiB", bytes/1024, plannedQueryBytes>>10)
	}
}

package service

import (
	"sort"
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/racetest"
)

func TestQueryKeyCanonical(t *testing.T) {
	a, err := cond.Parse(`V = 'dui'`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cond.Parse(`V = 'sp'`)
	if err != nil {
		t.Fatal(err)
	}
	if QueryKey([]cond.Cond{a, b}, core.AlgoSJAPlus) != QueryKey([]cond.Cond{b, a}, core.AlgoSJAPlus) {
		t.Fatal("condition order changed the query key")
	}
	if QueryKey([]cond.Cond{a, b}, core.AlgoSJAPlus) == QueryKey([]cond.Cond{a, b}, core.AlgoFilter) {
		t.Fatal("algorithm not part of the query key")
	}
}

// TestQueryKeyText: the key is the algorithm, a bar, and the conditions'
// texts sorted and joined by AND, whatever their order, however many they
// are (past the count QueryKey keeps on its stack too), and whatever their
// kind of node.
func TestQueryKeyText(t *testing.T) {
	texts := []string{"V = 'sp'", "D >= 1993", "(A < 1 OR B IN (2, 3)) AND NOT C LIKE 'x%'", "V = 'dui'", "A1 < 500", "TRUE"}
	for n := 0; n <= 3*keyConds; n++ {
		conds := make([]cond.Cond, n)
		want := make([]string, n)
		for i := range conds {
			want[i] = texts[(7*i+3)%len(texts)]
			conds[i] = cond.MustParse(want[i])
			want[i] = conds[i].String()
		}
		sort.Strings(want)
		if got, want := QueryKey(conds, core.AlgoSJAPlus), string(core.AlgoSJAPlus)+"|"+strings.Join(want, " AND "); got != want {
			t.Fatalf("QueryKey of %d conditions = %q, want %q", n, got, want)
		}
	}
}

// TestQueryKeyAllocs: the conditions are rendered once, into one buffer, and
// the key is made at its size: two allocations for a usual query.
func TestQueryKeyAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	conds := []cond.Cond{cond.MustParse("A3 < 120"), cond.MustParse("A1 < 500"), cond.MustParse("A2 < 70")}
	if allocs := testing.AllocsPerRun(100, func() { QueryKey(conds, core.AlgoSJAPlus) }); allocs != 2 {
		t.Errorf("QueryKey of three conditions: %v allocations, want 2", allocs)
	}
}

func TestPlanCacheEpochAndLRU(t *testing.T) {
	reg := obs.NewRegistry()
	pc := NewPlanCache(2, reg)
	res := func(cost float64) optimizer.Result {
		return optimizer.Result{Plan: &plan.Plan{}, Cost: cost}
	}

	pc.Put("q1", 1, res(1))
	if _, ok := pc.Get("q1", 1); !ok {
		t.Fatal("same-epoch entry missed")
	}
	// Epoch mismatch: never served, evicted as stale.
	if _, ok := pc.Get("q1", 2); ok {
		t.Fatal("stale-epoch plan served")
	}
	if ev := reg.Counter(obs.MPlanCacheEvictions, "reason", "stale").Value(); ev != 1 {
		t.Fatalf("stale evictions = %d, want 1", ev)
	}
	if pc.Len() != 0 {
		t.Fatalf("Len = %d after stale eviction, want 0", pc.Len())
	}

	// LRU overflow: q1 is refreshed by a Get, so q2 is the victim.
	pc.Put("q1", 2, res(1))
	pc.Put("q2", 2, res(2))
	if _, ok := pc.Get("q1", 2); !ok {
		t.Fatal("q1 missed")
	}
	pc.Put("q3", 2, res(3))
	if _, ok := pc.Get("q2", 2); ok {
		t.Fatal("LRU victim q2 still cached")
	}
	if _, ok := pc.Get("q1", 2); !ok {
		t.Fatal("recently-used q1 evicted")
	}
	if ev := reg.Counter(obs.MPlanCacheEvictions, "reason", "size").Value(); ev != 1 {
		t.Fatalf("size evictions = %d, want 1", ev)
	}

	pc.Invalidate("q1")
	if _, ok := pc.Get("q1", 2); ok {
		t.Fatal("invalidated plan served")
	}

	// Disabled cache: everything misses silently.
	var nilCache *PlanCache
	if _, ok := nilCache.Get("q", 1); ok {
		t.Fatal("nil cache hit")
	}
	off := NewPlanCache(0, reg)
	off.Put("q", 1, res(1))
	if _, ok := off.Get("q", 1); ok {
		t.Fatal("disabled cache hit")
	}
}

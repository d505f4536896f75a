package service

import (
	"fmt"
	"slices"
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
// texts sorted, each behind its length and a colon, whatever their order,
// however many they are (past the count QueryKey keeps on its stack too),
// and whatever their kind of node; and a request that spells each condition
// as it renders keys alike by its texts.
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
		spelt := append([]string(nil), want...)
		sort.Strings(want)
		var key strings.Builder
		key.WriteString(string(core.AlgoSJAPlus) + "|")
		for _, text := range want {
			fmt.Fprintf(&key, "%d:%s", len(text), text)
		}
		if got := QueryKey(conds, core.AlgoSJAPlus); got != key.String() {
			t.Fatalf("QueryKey of %d conditions = %q, want %q", n, got, key.String())
		}
		if got := textKey(spelt, core.AlgoSJAPlus); got != key.String() {
			t.Fatalf("textKey of %d conditions = %q, want %q", n, got, key.String())
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

// FuzzQueryKey holds the key to what the service builds on it, over two
// lists of condition texts, one a line. When each text parses and is its
// condition's rendering, the key made of the texts unparsed (textKey) is
// the QueryKey of the conditions, which queryKey reports without building
// it; when one is not, queryKey builds the QueryKey. Two lists' QueryKeys
// are equal exactly when their rendered texts are the same multiset, and
// their textKeys exactly when their texts are.
func FuzzQueryKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"V = 'dui' AND V = 'sp'", "V = 'dui'\nV = 'sp'"},
		{"V = 'sp'\nV = 'dui'", "V = 'dui'\nV = 'sp'"},
		{"V='dui'\n V  =  'sp' ", "V = 'dui'\nV = 'sp'"},
		{"V = 'dui'\nV = 'sp' AND D >= 1993", "V = 'dui' AND V = 'sp'\nD >= 1993"},
		{"A1 < 500\n(A2 < 7 OR A3 > 2) AND NOT B IN (1, 2)", "NOT B IN (1,2) AND (A3>2 OR A2<7)\nA1<500"},
		{"TRUE\nTRUE", "TRUE"},
	} {
		f.Add(seed[0], seed[1])
	}
	algo := core.AlgoSJAPlus
	f.Fuzz(func(t *testing.T, a, b string) {
		lists := [2][]string{strings.Split(a, "\n"), strings.Split(b, "\n")}
		var keys, rendered [2]string
		for i, texts := range lists {
			conds, err := ParseConds(texts)
			if err != nil {
				return
			}
			keys[i] = QueryKey(conds, algo)
			canon := make([]string, len(conds))
			for j, c := range conds {
				canon[j] = c.String()
			}
			spelt := slices.Equal(canon, texts)
			key, asSpelt := queryKey(conds, algo, texts)
			switch {
			case asSpelt != spelt:
				t.Fatalf("%q: queryKey reports spelt %v, the texts render as %q", texts, asSpelt, canon)
			case spelt && textKey(texts, algo) != keys[i]:
				t.Fatalf("%q: textKey %q, QueryKey %q", texts, textKey(texts, algo), keys[i])
			case !spelt && key != keys[i]:
				t.Fatalf("%q: queryKey %q, QueryKey %q", texts, key, keys[i])
			}
			slices.Sort(canon)
			rendered[i] = fmt.Sprintf("%q", canon)
		}
		if same := rendered[0] == rendered[1]; (keys[0] == keys[1]) != same {
			t.Fatalf("%q and %q: QueryKeys %q and %q, rendered texts alike %v", lists[0], lists[1], keys[0], keys[1], same)
		}
		sorted := [2][]string{slices.Sorted(slices.Values(lists[0])), slices.Sorted(slices.Values(lists[1]))}
		if same := slices.Equal(sorted[0], sorted[1]); (textKey(lists[0], algo) == textKey(lists[1], algo)) != same {
			t.Fatalf("%q and %q: textKeys alike %v, texts alike %v", lists[0], lists[1], !same, same)
		}
	})
}

package plan

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"fusionq/internal/racetest"
)

// TestFlowOfFilterPlan: on Figure 2(a)'s filter plan, which reassigns X2
// and X3, each input reads the version current at its step, each version's
// last reader is found, each round's selections form one batch, and the
// running sets of the first two rounds and the result are the versions a
// run keeps.
func TestFlowOfFilterPlan(t *testing.T) {
	p := filterPlan32()
	f := p.Flow()
	wantIn := [][]int{nil, nil, {0, 1}, nil, nil, {3, 4}, {5, 2}, nil, nil, {7, 8}, {9, 6}}
	for i, want := range wantIn {
		if !slices.Equal(f.In[i], want) {
			t.Errorf("In[%d] = %v, want %v", i, f.In[i], want)
		}
	}
	if want := []int{2, 2, 6, 5, 5, 6, 10, 9, 9, 10, -1}; !slices.Equal(f.Last, want) {
		t.Errorf("Last = %v, want %v", f.Last, want)
	}
	if want := []int{2, 2, 2, 5, 5, 5, 6, 9, 9, 9, 10}; !slices.Equal(f.BatchEnd, want) {
		t.Errorf("BatchEnd = %v, want %v", f.BatchEnd, want)
	}
	for i, end := range f.RoundEnd {
		if end != (i == 2 || i == 6) {
			t.Errorf("RoundEnd[%d] = %v", i, end)
		}
	}
	if f.Result != 10 {
		t.Errorf("Result = %d, want 10", f.Result)
	}
	for i, s := range p.Steps {
		if f.Texts[i] != p.StepString(s) {
			t.Errorf("Texts[%d] = %q, want %q", i, f.Texts[i], p.StepString(s))
		}
	}
}

// TestFlowIsComputedOncePerMemoizedPlan: a memoized plan keeps its Flow, a
// copy that shares its steps shares it, and a copy that replaces the steps
// or the result gets its own; a plan with no slot computes one each call.
// Copies and calls race freely (run under -race).
func TestFlowIsComputedOncePerMemoizedPlan(t *testing.T) {
	plain := filterPlan32()
	if plain.Flow() == plain.Flow() {
		t.Fatal("a plan that was never memoized kept its Flow")
	}
	p := filterPlan32()
	p.Memoize()
	f := p.Flow()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := *p
				q.Records = FetchRecords
				if p.Flow() != f || q.Flow() != f {
					t.Error("a memoized plan or its copy computed its Flow again")
					return
				}
			}
		}()
	}
	wg.Wait()
	shorter := *p
	shorter.Steps = p.Steps[:10]
	shorter.Result = "X3"
	if g := shorter.Flow(); g == f || len(g.Texts) != 10 || g.Result != 9 {
		t.Fatalf("a copy with fewer steps read the original's Flow (%d steps, result %d)", len(g.Texts), g.Result)
	}
	// The slot now holds the shorter copy's Flow; the original's is
	// computed again for its own steps.
	if g := p.Flow(); len(g.Texts) != len(p.Steps) || g.Result != 10 {
		t.Fatalf("the original's Flow after its copy's: %d steps, result %d", len(g.Texts), g.Result)
	}
}

// chainPlan is a plan of rounds selections, each round's two answers joined
// by a union and intersected into the running set: 4·rounds-1 steps.
func chainPlan(rounds int) *Plan {
	p := &Plan{Conds: testConds(rounds), Sources: []string{"R1", "R2"}, Class: "chain"}
	for c := 0; c < rounds; c++ {
		a, b, x := fmt.Sprintf("X%d1", c+1), fmt.Sprintf("X%d2", c+1), fmt.Sprintf("X%d", c+1)
		p.Steps = append(p.Steps,
			Step{Kind: KindSelect, Out: a, Cond: c, Source: 0},
			Step{Kind: KindSelect, Out: b, Cond: c, Source: 1},
			Step{Kind: KindUnion, Out: x, Cond: -1, In: []string{a, b}})
		if c > 0 {
			p.Steps = append(p.Steps, Step{Kind: KindIntersect, Out: "X", Cond: -1, In: []string{"X", x}})
		} else {
			p.Steps = append(p.Steps, Step{Kind: KindUnion, Out: "X", Cond: -1, In: []string{x}})
		}
	}
	p.Result = "X"
	return p
}

// flowAllocs bounds what computing a fresh plan's Flow allocates, whatever
// its length: the Flow, its arrays and one buffer of every step's text.
const flowAllocs = 6

// TestFlowAllocs: a plan's Flow makes its step texts in one buffer, so a
// plan of a hundred steps allocates what a plan of four does.
func TestFlowAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	for _, rounds := range []int{1, 25} {
		p := chainPlan(rounds)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		f := p.Flow()
		for i, s := range p.Steps {
			if f.Texts[i] != p.StepString(s) {
				t.Fatalf("Texts[%d] = %q, want %q", i, f.Texts[i], p.StepString(s))
			}
		}
		got := testing.AllocsPerRun(50, func() { p.Flow() })
		t.Logf("%d steps: %v allocations", len(p.Steps), got)
		if got > flowAllocs {
			t.Errorf("the Flow of a %d-step plan allocated %v times, want at most %d", len(p.Steps), got, flowAllocs)
		}
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/optimizer"
)

func dmvConds(t *testing.T) []cond.Cond {
	t.Helper()
	var out []cond.Cond
	for _, s := range []string{`V = 'dui'`, `V = 'sp'`} {
		c, err := cond.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%s): %v", s, err)
		}
		out = append(out, c)
	}
	return out
}

// TestQueryPlannedMatchesFresh: executing a previously optimized plan gives
// the same answer as the plan-and-execute path, in both materialized and
// streaming modes.
func TestQueryPlannedMatchesFresh(t *testing.T) {
	m := dmvMediator(t, true)
	conds := dmvConds(t)
	res, err := m.Plan(context.Background(), conds, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	fresh, err := m.QueryCondsContext(context.Background(), conds, Options{})
	if err != nil {
		t.Fatalf("QueryCondsContext: %v", err)
	}
	for _, streaming := range []bool{false, true} {
		ans, err := m.QueryPlannedContext(context.Background(), conds, res, Options{Streaming: streaming})
		if err != nil {
			t.Fatalf("QueryPlannedContext(streaming=%v): %v", streaming, err)
		}
		if !ans.Items.Equal(fresh.Items) {
			t.Fatalf("QueryPlannedContext(streaming=%v) = %v, want %v", streaming, ans.Items.Slice(), fresh.Items.Slice())
		}
		if ans.QueryID == "" {
			t.Fatal("planned query got no query ID — instrumentation skipped")
		}
	}
}

// TestQueryPlannedStalePlan: a plan optimized against a roster that has
// since lost a source fails with ErrStalePlan before any source traffic.
func TestQueryPlannedStalePlan(t *testing.T) {
	m := dmvMediator(t, true)
	conds := dmvConds(t)
	res, err := m.Plan(context.Background(), conds, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	name := m.SourceNames()[0]
	if !m.RemoveSource(name) {
		t.Fatalf("RemoveSource(%s) = false", name)
	}
	if m.RemoveSource(name) {
		t.Fatal("second RemoveSource reported presence")
	}
	_, err = m.QueryPlannedContext(context.Background(), conds, res, Options{})
	if !errors.Is(err, ErrStalePlan) {
		t.Fatalf("QueryPlannedContext after removal = %v, want ErrStalePlan", err)
	}
	if _, err := m.QueryPlannedContext(context.Background(), conds, optimizer.Result{}, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

// TestEpochMoves: every roster mutation moves the epoch; reads don't.
func TestEpochMoves(t *testing.T) {
	m := dmvMediator(t, false)
	e0 := m.Epoch()
	if m.Epoch() != e0 {
		t.Fatal("Epoch read moved the epoch")
	}
	if got := m.BumpEpoch(); got != e0+1 {
		t.Fatalf("BumpEpoch = %d, want %d", got, e0+1)
	}
	name := m.SourceNames()[2]
	if !m.RemoveSource(name) {
		t.Fatalf("RemoveSource(%s) = false", name)
	}
	if got := m.Epoch(); got != e0+2 {
		t.Fatalf("epoch after removal = %d, want %d", got, e0+2)
	}
	if len(m.SourceNames()) != 2 {
		t.Fatalf("roster size = %d after removal, want 2", len(m.SourceNames()))
	}
}

package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// replicatedDMVMediator builds the Figure 1 scenario with R1 behind a
// two-replica fabric source (endpoints R1-a, R1-b over the same relation)
// and R2, R3 as plain sources.
func replicatedDMVMediator(t *testing.T) (*Mediator, *fabric.Logical, *netsim.Network) {
	t.Helper()
	sc := workload.DMV()
	m := New(sc.Schema)
	network := netsim.NewNetwork(1)
	m.SetNetwork(network)
	link := netsim.Link{Latency: 5 * time.Millisecond, BytesPerSec: 50000, RequestOverhead: 2 * time.Millisecond}
	w := sc.Sources[0].(*source.Wrapper)
	logical, err := m.AddReplicatedSource(w.Name(), []ReplicaSpec{
		{Source: source.NewWrapper(w.Name()+"-a", source.NewRowBackend(sc.Relations[0]), w.Caps()), Link: link},
		{Source: source.NewWrapper(w.Name()+"-b", source.NewRowBackend(sc.Relations[0]), w.Caps()), Link: link},
	}, fabric.Options{NoSpeculation: true})
	if err != nil {
		t.Fatalf("AddReplicatedSource: %v", err)
	}
	for _, src := range sc.Sources[1:] {
		if err := m.AddSourceLink(src, link); err != nil {
			t.Fatalf("AddSourceLink: %v", err)
		}
	}
	return m, logical, network
}

var paperConds = []cond.Cond{cond.MustParse("V = 'dui'"), cond.MustParse("V = 'sp'")}

// TestReplicaKilledMidQueryFullAnswer is the acceptance scenario behind the
// public API: one replica of the two-replica R1 dies (the kill fires on the
// very first exchange, so the statistics exchange and execution both ride on
// the survivor) and the query still completes with the FULL answer and no
// repair.
func TestReplicaKilledMidQueryFullAnswer(t *testing.T) {
	m, logical, network := replicatedDMVMediator(t)
	network.ScheduleChurn([]netsim.ChurnEvent{
		{At: 0, Source: logical.Endpoints()[0].Name(), Kind: netsim.ChurnKill},
	})
	ans, err := m.QueryCondsContext(context.Background(), paperConds, Options{Algorithm: AlgoFilter, Retries: 1})
	if err != nil {
		t.Fatalf("query with one dead replica: %v", err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want the full answer %v", ans.Items, want)
	}
	if ans.Repair != nil {
		t.Fatalf("Repair = %+v, want nil: a surviving replica needs no roster repair", ans.Repair)
	}
	if ans.Exec.Failovers+ans.Exec.Retries < 1 {
		t.Fatalf("failovers=%d retries=%d: the dead replica was never exercised", ans.Exec.Failovers, ans.Exec.Retries)
	}
}

// TestRosterRepairAfterLogicalSourceDies kills BOTH replicas of R1 midway
// through execution: the fabric reports exhaustion, and the mediator must
// repair the roster — keep the completed rounds' running set, re-plan the
// pending conditions over R2 and R3, and return an answer inside the
// honest envelope answer(survivors) ⊆ repaired ⊆ answer(full roster).
func TestRosterRepairAfterLogicalSourceDies(t *testing.T) {
	repairMidQuery(t, Options{Algorithm: AlgoFilter})
}

// TestRecordsQueryRepairs: a records query repairs like any other, and its
// records are what the second phase fetches for the repaired answer from the
// survivors.
func TestRecordsQueryRepairs(t *testing.T) {
	ans := repairMidQuery(t, Options{Algorithm: AlgoFilter, Records: true})
	want, err := exec.FetchAnswer(context.Background(), ans.Items, workload.DMV().Sources[1:])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Records == nil || fmt.Sprint(sortedRows(ans.Records)) != fmt.Sprint(sortedRows(want)) {
		t.Fatalf("records\n%v\nthe survivors' second phase fetches\n%v", ans.Records, want)
	}
}

// TestAdaptiveQueryRepairs: the adaptive row repairs like any other: the
// rounds it ran seed the repair, and the conditions it had not placed are
// pending with the rest.
func TestAdaptiveQueryRepairs(t *testing.T) {
	repairMidQuery(t, Options{Algorithm: AlgoAdaptive})
}

// sortedRows renders a relation's tuples in a fixed order.
func sortedRows(r *relation.Relation) []string {
	var out []string
	for _, t := range r.Rows() {
		out = append(out, fmt.Sprint(t))
	}
	slices.Sort(out)
	return out
}

// repairMidQuery runs a query with opts over the replicated DMV roster while
// both replicas of R1 die midway through its execution, checks the repair
// and the envelope, and returns the repaired answer.
func repairMidQuery(t *testing.T, opts Options) *Answer {
	t.Helper()
	// A third condition makes execution three rounds long, so a kill can be
	// scheduled well inside it, before the logical source's last exchange
	// and after its first rounds completed. The full-roster answer
	// stays {J55, T21}; survivors-only shrinks to {T21} (only R2 can vouch
	// for a dui), so the envelope is non-trivial.
	conds := append(append([]cond.Cond(nil), paperConds...), cond.MustParse("D < 1995"))

	// Reference answers over plain (non-replicated) rosters.
	sc := workload.DMV()
	refAnswer := func(srcs []source.Source) set.Set {
		t.Helper()
		ref := New(sc.Schema)
		for _, src := range srcs {
			if err := ref.AddSourceLink(src, netsim.Link{Latency: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		ans, err := ref.QueryCondsContext(context.Background(), conds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Items
	}
	fullRef := refAnswer(sc.Sources)
	survivorRef := refAnswer(sc.Sources[1:])
	if fullRef.Equal(survivorRef) {
		t.Fatalf("degenerate scenario: survivors alone compute the full answer %v", fullRef)
	}

	// Calibrate the kill time. With the statistics catalog warm a query plans
	// without an exchange, so after a Reset the log holds one execution from
	// simulated time zero: the kill lands halfway to the logical source's last
	// execution exchange, read off the dry run's exchange log.
	m, logical, network := replicatedDMVMediator(t)
	if _, err := m.Problem(context.Background(), conds, opts); err != nil {
		t.Fatalf("warming the catalog: %v", err)
	}
	network.Reset()
	dry, err := m.QueryCondsContext(context.Background(), conds, opts)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	replicaNames := map[string]bool{}
	for _, ep := range logical.Endpoints() {
		replicaNames[ep.Name()] = true
	}
	var cum, lastReplicaStart time.Duration
	for _, ex := range network.Log() {
		if replicaNames[ex.Source] {
			lastReplicaStart = cum
		}
		cum += ex.Elapsed
	}
	if lastReplicaStart <= 0 {
		t.Fatalf("cannot place mid-execution kill: last replica exchange at %v (exec total %v)",
			lastReplicaStart, dry.Exec.TotalWork)
	}
	killAt := lastReplicaStart / 2

	network.Reset() // the dry run advanced simulated time; start churn at zero
	network.ScheduleChurn([]netsim.ChurnEvent{
		{At: killAt, Source: logical.Endpoints()[0].Name(), Kind: netsim.ChurnKill},
		{At: killAt, Source: logical.Endpoints()[1].Name(), Kind: netsim.ChurnKill},
	})
	ans, err := m.QueryCondsContext(context.Background(), conds, opts)
	if err != nil {
		t.Fatalf("repaired query: %v", err)
	}
	if ans.Repair == nil {
		t.Fatalf("Repair = nil after both replicas died (answer %v)", ans.Items)
	}
	if len(ans.Repair.Dead) != 1 || ans.Repair.Dead[0] != logical.Name() {
		t.Fatalf("Repair.Dead = %v, want [%s]", ans.Repair.Dead, logical.Name())
	}
	if ans.Repair.Replans < 1 || !ans.Repair.Partial {
		t.Fatalf("Repair = %+v, want >=1 replans and Partial", ans.Repair)
	}
	if !survivorRef.Diff(ans.Items).IsEmpty() {
		t.Fatalf("repaired answer %v misses survivor-only items %v", ans.Items, survivorRef.Diff(ans.Items))
	}
	if !ans.Items.Diff(fullRef).IsEmpty() {
		t.Fatalf("repaired answer %v contains items outside the full answer %v", ans.Items, fullRef)
	}
	return ans
}

// TestSplitCompletedAdaptivePlan: an adaptive run stages a round only once it
// decides it, so when its second round fails the executed plan holds two of
// three rounds. The first seeds the repair; the failed round's condition and
// the one never placed are pending.
func TestSplitCompletedAdaptivePlan(t *testing.T) {
	m := dmvMediator(t, false)
	conds := append(append([]cond.Cond(nil), paperConds...), cond.MustParse("D < 1995"))
	res, err := m.Plan(context.Background(), conds, Options{Algorithm: AlgoAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	p := *res.Plan
	var starts []int
	for i, s := range p.Steps {
		if s.Cond >= 0 && (len(starts) == 0 || p.Steps[starts[len(starts)-1]].Cond != s.Cond) {
			starts = append(starts, i)
		}
	}
	if len(starts) != 3 {
		t.Fatalf("%d rounds in\n%s", len(starts), &p)
	}
	p.Steps = p.Steps[:starts[2]] // the third round was never decided
	first := p.Steps[starts[0]].Cond
	seedVar := p.Steps[starts[1]-1].Out
	run := &exec.Result{FailedStep: starts[1], Vars: map[string]set.Set{seedVar: set.New("J55")}}
	seed, ok, pending := splitCompleted(&p, run)
	if !ok || !seed.Equal(set.New("J55")) {
		t.Fatalf("seed %v (%v), want the first round's running set", seed, ok)
	}
	if len(pending) != 2 {
		t.Fatalf("pending %v, want the two conditions after the first round's", pending)
	}
	for _, c := range pending {
		if c.String() == conds[first].String() {
			t.Fatalf("pending %v holds the completed condition %v", pending, c)
		}
	}
}

package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// TestRecordsScheduleFollowsE13 pins the records pricing to what E13
// measures, on E13's data and link. Over four dispersed sources the planner
// keeps the fetch round; over the mirrored relation, registered as four
// replicas of one logical source, it ships the records in the final round.
// Either way the schedule it picks does no more measured work than the other
// one does for the same plan.
func TestRecordsScheduleFollowsE13(t *testing.T) {
	link := netsim.Link{Latency: 150 * time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: 50 * time.Millisecond}
	for _, sel2 := range []float64{0.1, 0.3, 0.6} {
		cfg := workload.SynthConfig{
			Seed: 14, NumSources: 4, TuplesPerSource: 350, Universe: 280,
			Selectivity:  []float64{0.2, sel2},
			PayloadBytes: 400,
		}
		sc, err := workload.Synth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dispersed := New(sc.Schema)
		dispersed.SetNetwork(netsim.NewNetwork(cfg.Seed + 1))
		for _, src := range sc.Sources {
			if err := dispersed.AddSourceLink(src, link); err != nil {
				t.Fatal(err)
			}
		}
		checkRecordsSchedule(t, fmt.Sprintf("dispersed sel(c2)=%v", sel2), dispersed, sc.Conds, plan.FetchRecords)

		one := cfg
		one.NumSources = 1
		msc, err := workload.Synth(one)
		if err != nil {
			t.Fatal(err)
		}
		mirrored := New(msc.Schema)
		mirrored.SetNetwork(netsim.NewNetwork(cfg.Seed + 1))
		caps := source.Capabilities{NativeSemijoin: true, PassedBindings: true}
		var replicas []ReplicaSpec
		for j := 1; j <= cfg.NumSources; j++ {
			w := source.NewWrapper(fmt.Sprintf("R%d", j), source.NewRowBackend(msc.Relations[0]), caps)
			replicas = append(replicas, ReplicaSpec{Source: w, Link: link})
		}
		if _, err := mirrored.AddReplicatedSource("R", replicas, fabric.Options{NoSpeculation: true}); err != nil {
			t.Fatal(err)
		}
		checkRecordsSchedule(t, fmt.Sprintf("mirrored sel(c2)=%v", sel2), mirrored, msc.Conds, plan.FinalRecords)
	}
}

// checkRecordsSchedule plans a records query under SJA, as E13 does, wants
// the planner to have picked want, and runs the plan under both schedules:
// the same answer and records, and no more work for want than for the other.
func checkRecordsSchedule(t *testing.T, what string, m *Mediator, conds []cond.Cond, want plan.Records) {
	t.Helper()
	ctx := context.Background()
	opts := Options{Algorithm: AlgoSJA, Records: true}
	res, err := m.Plan(ctx, conds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Records != want {
		t.Fatalf("%s: the planner picked %s records, want %s\n%s", what, res.Plan.Records, want, res.Plan)
	}
	answers := map[plan.Records]*Answer{}
	for _, records := range []plan.Records{plan.FetchRecords, plan.FinalRecords} {
		p := *res.Plan
		p.Records = records
		ans, err := m.QueryPlannedContext(ctx, conds, optimizer.Result{Plan: &p, Cost: res.Cost}, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", what, records, err)
		}
		answers[records] = ans
	}
	fetch, final := answers[plan.FetchRecords], answers[plan.FinalRecords]
	if !fetch.Items.Equal(final.Items) || fetch.Records.Len() != final.Records.Len() {
		t.Fatalf("%s: the schedules disagree: %d items and %d records by fetch, %d and %d by the final round",
			what, fetch.Items.Len(), fetch.Records.Len(), final.Items.Len(), final.Records.Len())
	}
	picked, other := answers[want], fetch
	if want == plan.FetchRecords {
		other = final
	}
	if picked.Exec.TotalWork > other.Exec.TotalWork {
		t.Fatalf("%s: the picked %s schedule took %v of work, the other %v", what, want, picked.Exec.TotalWork, other.Exec.TotalWork)
	}
	t.Logf("%s: %d answers; work %v by fetch, %v by the final round", what, fetch.Items.Len(), fetch.Exec.TotalWork, final.Exec.TotalWork)
}

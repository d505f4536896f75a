package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// TestStreamEstimateOnWireReplicas holds the streaming cost estimate to what a
// streamed query measures on the benchmark's remote-stream shape: four
// logical sources of 10^4 tuples, each behind two loopback wire replicas
// under the fabric (speculation off, so every exchange is one leg), links
// costed as the service's deployments cost them, and the default batch. For
// a 2-, a 3- and a 4-condition query, plan.EstimateStreamCost over the
// query's own plan and cost table is within [0.8, 1.25] of the run's total
// work.
func TestStreamEstimateOnWireReplicas(t *testing.T) {
	ctx := context.Background()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 3, NumSources: 4, TuplesPerSource: 10000, Universe: 20000,
		Selectivity: []float64{0.5, 0.5, 0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(3))
	caps := source.Capabilities{NativeSemijoin: true, PassedBindings: true}
	for j, rel := range sc.Relations {
		const base = 2 * time.Millisecond
		link := netsim.Link{Latency: base + base*time.Duration(j)/2, BytesPerSec: 1 << 20, RequestOverhead: base / 2, MaxConns: 4}
		specs := make([]ReplicaSpec, 2)
		for r := range specs {
			w := source.NewWrapper(fmt.Sprintf("R%d-%c", j+1, 'a'+r), source.NewRowBackend(rel), caps)
			srv, err := wire.ServeConfig(w, "127.0.0.1:0", wire.Config{Logf: func(string, ...interface{}) {}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			cli, err := wire.DialContext(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			specs[r] = ReplicaSpec{Source: cli, Link: link}
		}
		if _, err := m.AddReplicatedSource(fmt.Sprintf("R%d", j+1), specs, fabric.Options{NoSpeculation: true}); err != nil {
			t.Fatal(err)
		}
	}
	all := []string{"A1 < 700", "A2 < 600", "A3 < 800", "A4 < 500"}
	opts := Options{Streaming: true}
	for n := 2; n <= len(all); n++ {
		conds := make([]cond.Cond, n)
		for i := range conds {
			conds[i] = cond.MustParse(all[i])
		}
		pr, err := m.Problem(ctx, conds, opts)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := m.QueryCondsContext(ctx, conds, opts)
		if err != nil {
			t.Fatal(err)
		}
		est, err := plan.EstimateStreamCost(ans.Plan, pr.Table, 0)
		if err != nil {
			t.Fatal(err)
		}
		work := ans.Exec.TotalWork.Seconds()
		ratio := est.Cost / work
		t.Logf("%d conditions: %d items, %d steps, estimated %.4fs, measured %.4fs, ratio %.3f",
			n, ans.Items.Len(), len(ans.Plan.Steps), est.Cost, work, ratio)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%d conditions: estimated %.4fs, measured %.4fs: ratio %.3f outside [0.8, 1.25]", n, est.Cost, work, ratio)
		}
	}
}

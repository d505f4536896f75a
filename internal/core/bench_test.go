package core

import (
	"context"
	"fmt"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/workload"
)

var problemSink *optimizer.Problem

// BenchmarkProblem is the standing number for planning's own cost: one
// Problem call with the catalog warm, three conditions over six sources of
// the benchmark's cold data. It reaches no source.
func BenchmarkProblem(b *testing.B) {
	sc, err := workload.Synth(workload.SynthConfig{Seed: 1, NumSources: 6, TuplesPerSource: 2000, Universe: 4000, Selectivity: []float64{0.2, 0.4, 0.6}})
	if err != nil {
		b.Fatal(err)
	}
	m := New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	for j, src := range sc.Sources {
		if err := m.AddSourceLink(src, benchLink(j)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	conds := make([][]cond.Cond, 64)
	for k := range conds {
		for i := 0; i < 3; i++ {
			conds[k] = append(conds[k], cond.MustParse(fmt.Sprintf("A%d < %d", i+1, 100+(k*131+i*277)%800)))
		}
	}
	if _, err := m.Problem(ctx, conds[0], Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := m.Problem(ctx, conds[i%len(conds)], Options{})
		if err != nil {
			b.Fatal(err)
		}
		problemSink = pr
	}
}

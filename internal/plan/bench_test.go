package plan_test

import (
	"testing"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/racetest"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// sjaPlus4x16 is an SJA+ plan over 4 conditions and 16 sources, and its
// cost table.
func sjaPlus4x16(tb testing.TB) (*plan.Plan, *stats.CostTable) {
	tb.Helper()
	const m, n = 4, 16
	conds := workload.MustConds(m)
	names := make([]string, n)
	sts := make([]stats.SourceStats, n)
	profiles := make([]stats.SourceProfile, n)
	for j := range names {
		names[j] = plan.SourceName(j)
		cc := make([]float64, m)
		for i := range cc {
			cc[i] = float64(10 * (i + 1))
		}
		sts[j] = stats.SourceStats{Name: names[j], Tuples: 1000, DistinctItems: 1000, Bytes: 40000, CondCard: cc}
		profiles[j] = stats.SourceProfile{
			Name: names[j], PerQuery: 0.1, PerItemSent: 0.001, PerItemRecv: 0.001,
			PerByteLoad: 0.00001, Support: stats.SemijoinNative,
		}
	}
	table, err := stats.Build(conds, sts, profiles)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := optimizer.SJAPlus(&optimizer.Problem{Conds: conds, Sources: names, Table: table})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Plan, table
}

// BenchmarkPlanEstimate times the static cost estimator on an SJA+ plan
// over 4 conditions and 16 sources.
func BenchmarkPlanEstimate(b *testing.B) {
	p, table := sjaPlus4x16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EstimateCost(p, table); err != nil {
			b.Fatal(err)
		}
	}
}

// estimateAllocs bounds one EstimateCost of BenchmarkPlanEstimate's plan:
// the estimate's per-step figures and what it knows of each step's output,
// one block each.
const estimateAllocs = 2

// TestEstimateAllocs: the estimator, which the optimizers call on every
// candidate they price, allocates per plan, not per step or variable.
func TestEstimateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	p, table := sjaPlus4x16(t)
	var err error
	got := testing.AllocsPerRun(100, func() {
		_, err = plan.EstimateCost(p, table)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > estimateAllocs {
		t.Fatalf("one estimate allocated %v times, want at most %d", got, estimateAllocs)
	}
}

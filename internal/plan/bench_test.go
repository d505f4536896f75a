package plan_test

import (
	"testing"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// BenchmarkPlanEstimate times the static cost estimator on an SJA+ plan
// over 4 conditions and 16 sources.
func BenchmarkPlanEstimate(b *testing.B) {
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
		b.Fatal(err)
	}
	res, err := optimizer.SJAPlus(&optimizer.Problem{Conds: conds, Sources: names, Table: table})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EstimateCost(res.Plan, table); err != nil {
			b.Fatal(err)
		}
	}
}

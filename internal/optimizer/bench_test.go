package optimizer

import (
	"fmt"
	"testing"

	"fusionq/internal/stats"
)

// BenchmarkOptimizers times each optimization algorithm at three problem
// sizes (m conditions, n sources) over synthetic statistics: where optimizer
// wall time is measured, beside E4's invocation counts.
func BenchmarkOptimizers(b *testing.B) {
	algos := []struct {
		name string
		fn   func(*Problem) (Result, error)
	}{
		{"Filter", Filter},
		{"SJ", SJ},
		{"SJA", SJA},
		{"SJAPlus", SJAPlus},
		{"GreedySJA", GreedySJA},
	}
	sizes := []struct{ m, n int }{{3, 8}, {3, 64}, {5, 8}}
	profile := stats.SourceProfile{PerQuery: 0.1, PerItemSent: 0.001, PerItemRecv: 0.001, PerByteLoad: 0.00001, Support: stats.SemijoinNative}
	for _, a := range algos {
		for _, s := range sizes {
			b.Run(fmt.Sprintf("%s/m%d_n%d", a.name, s.m, s.n), func(b *testing.B) {
				cards := make([][]float64, s.m)
				for i := range cards {
					cards[i] = make([]float64, s.n)
					for j := range cards[i] {
						cards[i][j] = float64(10 * (i + 1))
					}
				}
				pr := mkProblem(b, s.m, s.n, cards, uniformProfiles(s.n, profile))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.fn(pr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// summaryFixture summarizes a synthetic source whose attributes are uniform
// over [0, 1000) and returns it with the source, for ground truth.
func summaryFixture(t *testing.T) (*relation.Summary, source.Source) {
	t.Helper()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 31, NumSources: 1, TuplesPerSource: 8000, Universe: 8000,
		Selectivity: []float64{0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := source.Summarize(context.Background(), sc.Sources[0])
	if err != nil {
		t.Fatal(err)
	}
	return sum, sc.Sources[0]
}

// exactFraction is the fraction of the source's items that satisfy the
// condition, by running it.
func exactFraction(t *testing.T, src source.Source, expr string) float64 {
	t.Helper()
	st, err := Gather(context.Background(), src, []cond.Cond{cond.MustParse(expr)})
	if err != nil {
		t.Fatal(err)
	}
	return st.CondCard[0] / float64(st.DistinctItems)
}

// TestEstimatesAgainstGroundTruth: comparisons are read off the summary
// within a bucket; the compound forms are combined under a model that gives
// every item the mean number of tuples, and are that much looser.
func TestEstimatesAgainstGroundTruth(t *testing.T) {
	sum, src := summaryFixture(t)
	for _, c := range []struct {
		expr string
		tol  float64
	}{
		{"A1 < 250", 0.04}, {"A1 < 500", 0.04}, {"A1 <= 1000", 0}, {"A1 < 0", 0},
		{"A1 >= 900", 0.04}, {"A1 > 999", 0.04}, {"A1 >= 0", 0}, {"A1 > 400", 0.04},
		{"A1 = 500", 0.005}, {"A1 != 500", 0.005}, {"A1 IN (1, 2, 3)", 0.01},
		{"A1 < 500 AND A2 < 200", 0.1}, {"A1 < 500 OR A2 < 200", 0.1}, {"NOT A1 < 500", 0.1},
	} {
		got, want := EstimateSelectivity(sum, cond.MustParse(c.expr)), exactFraction(t, src, c.expr)
		if math.Abs(got-want) > c.tol {
			t.Errorf("%q: estimated %.4f of the items, exactly %.4f (tolerance %v)", c.expr, got, want, c.tol)
		}
	}
	if EstimateSelectivity(sum, cond.True{}) != 1 {
		t.Error("TRUE should select every item")
	}
	if got := EstimateSelectivity(sum, cond.MustParse("Mystery = 'x'")); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("unknown attribute: %v, want the default 1/3", got)
	}
}

func TestStringEstimates(t *testing.T) {
	// R1 of the DMV example has dui at two of its three items and sp at one;
	// R3 has sp at both of its items, one of which carries it twice.
	for _, c := range []struct {
		source int
		expr   string
		want   float64
	}{
		{0, "V = 'dui'", 2.0 / 3}, {0, "V = 'sp'", 1.0 / 3}, {0, "V = 'nothing'", 1.0 / 3},
		{2, "V = 'sp'", 1}, {2, "V = 'dui'", 0},
	} {
		sum, err := source.Summarize(context.Background(), workload.DMV().Sources[c.source])
		if err != nil {
			t.Fatal(err)
		}
		if got := EstimateSelectivity(sum, cond.MustParse(c.expr)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("R%d %s: %v, want %v", c.source+1, c.expr, got, c.want)
		}
	}
}

func TestSummarizeDegenerateSources(t *testing.T) {
	schema := workload.DMVSchema()
	empty := relation.NewRelation(schema).Summarize()
	if got := StatsFromSummary("R", empty, []cond.Cond{cond.MustParse("D < 2000"), cond.MustParse("V = 'dui'")}); got.CondCard[0] != 0 || got.CondCard[1] != 0 {
		t.Fatalf("empty source: CondCard = %v, want zeros", got.CondCard)
	}
	one := relation.NewRelation(schema)
	one.MustInsert(relation.String("J55"), relation.String("dui"), relation.Int(1993))
	sum := one.Summarize()
	for expr, want := range map[string]float64{"D < 2000": 1, "D < 1993": 0, "D <= 1993": 1, "D = 1993": 1, "D > 1993": 0, "D >= 1993": 1} {
		if got := EstimateSelectivity(sum, cond.MustParse(expr)); got != want {
			t.Errorf("single tuple, %s: %v, want %v", expr, got, want)
		}
	}
}

// TestMalformedSummaryEstimatesWithoutPanic: a summary decoded from a peer's
// line is the peer's word; whatever it holds, an estimate comes out in [0,1].
func TestMalformedSummaryEstimatesWithoutPanic(t *testing.T) {
	conds := []cond.Cond{cond.MustParse("A < 5"), cond.MustParse("A >= 5"), cond.MustParse("A = 5"), cond.MustParse("S = 'x'"), cond.MustParse("NOT (A = 1 OR S = 'y')")}
	for _, sum := range []*relation.Summary{
		{},
		{Tuples: -4, DistinctItems: -2},
		{Tuples: 10, DistinctItems: 5, Numeric: map[string]*relation.NumericStats{"A": nil}, Strings: map[string]*relation.ValueCounts{"S": nil}},
		{Tuples: 10, DistinctItems: 5, Numeric: map[string]*relation.NumericStats{"A": {Low: []float64{9, 1, 5, 5, 2}, High: []float64{5}, Values: relation.ValueCounts{MCV: map[string]float64{"5": math.Inf(1)}}}}},
		{Tuples: 10, DistinctItems: 5, Strings: map[string]*relation.ValueCounts{"S": {MCV: map[string]float64{"x": -3}, OtherCount: math.NaN(), OtherDistinct: 1}}},
	} {
		for _, c := range conds {
			if got := EstimateSelectivity(sum, c); !(got >= 0 && got <= 1) {
				t.Errorf("%+v, %s: estimate %v outside [0,1]", sum, c, got)
			}
		}
	}
}

// skewedSource builds a source of the given number of items with 1–4 tuples
// each, whose attribute U is uniform over [0, 1000), whose P piles up near
// zero (the cube of a uniform draw) and whose Z takes twenty values with
// Zipfian frequencies.
func skewedSource(seed int64, items int) source.Source {
	schema := relation.MustSchema("ID",
		relation.Column{Name: "ID", Kind: relation.KindString},
		relation.Column{Name: "U", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindInt},
		relation.Column{Name: "Z", Kind: relation.KindInt},
	)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 19)
	rel := relation.NewRelation(schema)
	for i := 0; i < items; i++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			u := rng.Float64()
			rel.MustInsert(relation.String(workload.ItemName(i)),
				relation.Int(int64(rng.Intn(1000))), relation.Int(int64(1000*u*u*u)), relation.Int(int64(zipf.Uint64())))
		}
	}
	return source.NewWrapper("R", source.NewRowBackend(rel), source.Capabilities{})
}

// TestCatalogEstimatesTrackExactCardinalities is the accuracy half of the
// planning contract: for comparisons of every kind on uniform and skewed
// attributes, with one to four tuples an item, the cardinality read off the
// summary is within 5% of the source's items of the one Gather measures.
func TestCatalogEstimatesTrackExactCardinalities(t *testing.T) {
	thresholds := map[string][]int{
		"U": {0, 1, 50, 250, 500, 750, 999, 1000},
		"P": {0, 1, 2, 5, 10, 30, 125, 500, 999},
		"Z": {0, 1, 2, 3, 5, 10, 19, 20},
	}
	for seed := int64(1); seed <= 6; seed++ {
		src := skewedSource(seed, 300*int(seed))
		sum, err := source.Summarize(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		var conds []cond.Cond
		for _, attr := range []string{"U", "P", "Z"} {
			for _, op := range []string{"<", "<=", ">", ">=", "="} {
				for _, x := range thresholds[attr] {
					conds = append(conds, cond.MustParse(fmt.Sprintf("%s %s %d", attr, op, x)))
				}
			}
		}
		exact, err := Gather(context.Background(), src, conds)
		if err != nil {
			t.Fatal(err)
		}
		est := StatsFromSummary("R", sum, conds)
		if est.Tuples != exact.Tuples || est.DistinctItems != exact.DistinctItems || est.Bytes != exact.Bytes {
			t.Fatalf("seed %d: summary counts %d/%d/%d, the source's are %d/%d/%d", seed,
				est.Tuples, est.DistinctItems, est.Bytes, exact.Tuples, exact.DistinctItems, exact.Bytes)
		}
		for i, c := range conds {
			if diff := math.Abs(est.CondCard[i] - exact.CondCard[i]); diff > 0.05*float64(exact.DistinctItems) {
				t.Errorf("seed %d, %s: estimated %.1f items, exactly %.0f of %d", seed, c, est.CondCard[i], exact.CondCard[i], exact.DistinctItems)
			}
		}
	}
}

// TestSynthUniversesWithinTolerance runs the same bound over workload.Synth
// universes, the benchmark's data: uniform attributes, uniform and Zipfian
// item popularity (which sets the tuples an item has), independent and
// correlated conditions, every backend.
func TestSynthUniversesWithinTolerance(t *testing.T) {
	for i, cfg := range []workload.SynthConfig{
		{Seed: 41, NumSources: 3, TuplesPerSource: 2000, Universe: 4000, Selectivity: []float64{0.1, 0.5, 0.9}},
		{Seed: 42, NumSources: 3, TuplesPerSource: 2000, Universe: 700, Selectivity: []float64{0.3, 0.6}, Backend: workload.BackendMixed},
		{Seed: 43, NumSources: 2, TuplesPerSource: 3000, Universe: 1500, Selectivity: []float64{0.2, 0.7}, Zipf: true},
		{Seed: 44, NumSources: 2, TuplesPerSource: 1000, Universe: 400, Selectivity: []float64{0.5, 0.5}, Correlation: 0.8, PayloadBytes: 40},
	} {
		sc, err := workload.Synth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var conds []cond.Cond
		for a := range cfg.Selectivity {
			for _, op := range []string{"<", "<=", ">", ">=", "="} {
				for _, x := range []int{0, 100, 333, 500, 900, 999} {
					conds = append(conds, cond.MustParse(fmt.Sprintf("A%d %s %d", a+1, op, x)))
				}
			}
		}
		for _, src := range sc.Sources {
			sum, err := source.Summarize(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Gather(context.Background(), src, conds)
			if err != nil {
				t.Fatal(err)
			}
			est := StatsFromSummary(src.Name(), sum, conds)
			for k, c := range conds {
				if diff := math.Abs(est.CondCard[k] - exact.CondCard[k]); diff > 0.05*float64(exact.DistinctItems) {
					t.Errorf("universe %d, %s, %s: estimated %.1f items, exactly %.0f of %d", i, src.Name(), c, est.CondCard[k], exact.CondCard[k], exact.DistinctItems)
				}
			}
		}
	}
}

package stats

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/racetest"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

func dmvSource(t *testing.T) (source.Source, []cond.Cond) {
	t.Helper()
	sc := workload.DMV()
	return sc.Sources[0], sc.Conds
}

func TestGatherExact(t *testing.T) {
	src, conds := dmvSource(t)
	st, err := Gather(context.Background(), src, conds)
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	if st.Name != "R1" || st.Tuples != 3 || st.DistinctItems != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// R1 has 2 dui items and 1 sp item.
	if st.CondCard[0] != 2 || st.CondCard[1] != 1 {
		t.Fatalf("CondCard = %v, want [2 1]", st.CondCard)
	}
	if st.Bytes <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestProfileFromLink(t *testing.T) {
	l := netsim.Link{Latency: 40 * time.Millisecond, BytesPerSec: 1000, RequestOverhead: 20 * time.Millisecond}
	p := ProfileFromLink("R1", l, 10, SemijoinNative)
	if got, want := p.PerQuery, 0.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("PerQuery = %v, want %v", got, want)
	}
	if got, want := p.PerItemSent, 0.01; math.Abs(got-want) > 1e-9 {
		t.Fatalf("PerItemSent = %v, want %v", got, want)
	}
	if p.Support != SemijoinNative {
		t.Fatalf("Support = %v", p.Support)
	}
}

func TestProfileCosts(t *testing.T) {
	p := SourceProfile{PerQuery: 10, PerItemSent: 1, PerItemRecv: 2, PerByteLoad: 0.5, Support: SemijoinNative}
	if got := p.SelectCost(5); got != 20 {
		t.Fatalf("SelectCost = %v, want 20", got)
	}
	if got := p.SemijoinCost(10, 0.5); got != 10+10+10 {
		t.Fatalf("SemijoinCost native = %v, want 30", got)
	}
	p.Support = SemijoinEmulated
	if got := p.SemijoinCost(10, 0.5); got != 10*(10+1+1) {
		t.Fatalf("SemijoinCost emulated = %v, want 120", got)
	}
	p.Support = SemijoinNone
	if !math.IsInf(p.SemijoinCost(10, 0.5), 1) {
		t.Fatal("SemijoinCost none should be +Inf")
	}
	if got := p.LoadCost(100); got != 60 {
		t.Fatalf("LoadCost = %v, want 60", got)
	}
}

// Section 2.4 requires: cost(sjq over Y∪Z) ≤ cost(sjq over Y) + cost(sjq
// over Z). Affine costs with non-negative coefficients satisfy it; verify
// over random splits for both native and emulated support.
func TestPropSemijoinSubadditive(t *testing.T) {
	for _, sup := range []SemijoinSupport{SemijoinNative, SemijoinEmulated} {
		p := SourceProfile{PerQuery: 3, PerItemSent: 0.5, PerItemRecv: 0.25, Support: sup}
		f := func(y, z uint16, fracSeed uint8) bool {
			frac := float64(fracSeed%101) / 100
			whole := p.SemijoinCost(float64(y)+float64(z), frac)
			parts := p.SemijoinCost(float64(y), frac) + p.SemijoinCost(float64(z), frac)
			return whole <= parts+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("support %v: %v", sup, err)
		}
	}
}

func TestSupportOf(t *testing.T) {
	cases := []struct {
		caps source.Capabilities
		want SemijoinSupport
	}{
		{source.Capabilities{NativeSemijoin: true}, SemijoinNative},
		{source.Capabilities{PassedBindings: true}, SemijoinEmulated},
		{source.Capabilities{}, SemijoinNone},
	}
	for _, c := range cases {
		if got := SupportOf(c.caps); got != c.want {
			t.Errorf("SupportOf(%+v) = %v, want %v", c.caps, got, c.want)
		}
	}
}

func TestSupportString(t *testing.T) {
	if SemijoinNative.String() != "native" || SemijoinEmulated.String() != "emulated" || SemijoinNone.String() != "none" {
		t.Fatal("SemijoinSupport.String mismatch")
	}
}

func TestBuildTable(t *testing.T) {
	sc := workload.DMV()
	profiles := UniformProfiles(sc.SourceNames(), SourceProfile{
		PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.1, Support: SemijoinNative,
	})
	table, err := BuildFromSources(context.Background(), sc.Conds, sc.Sources, profiles)
	if err != nil {
		t.Fatalf("BuildFromSources: %v", err)
	}
	if table.M() != 2 || table.N() != 3 {
		t.Fatalf("table is %dx%d", table.M(), table.N())
	}
	// R1 has 2 dui items: sq_cost = 10 + 1*2.
	if got := table.SelectCost(0, 0); got != 12 {
		t.Fatalf("SelectCost(0,0) = %v, want 12", got)
	}
	// Domain is the summed distinct counts: 3+3+2 = 8.
	if table.Domain != 8 {
		t.Fatalf("Domain = %v, want 8", table.Domain)
	}
	// Semijoin over x items: 10 + (1 + 1*frac)*x with frac = 2/8.
	if got, want := table.SemijoinCost(0, 0, 8), 10+(1+0.25)*8; math.Abs(got-want) > 1e-9 {
		t.Fatalf("SemijoinCost = %v, want %v", got, want)
	}
	if table.SourceItems[2] != 2 {
		t.Fatalf("SourceItems[2] = %v, want 2 (R3 has S07 and T21)", table.SourceItems[2])
	}
	if table.Load[0] <= 10 {
		t.Fatalf("Load[0] = %v, should exceed PerQuery", table.Load[0])
	}
}

func TestBuildMismatchedInputs(t *testing.T) {
	if _, err := Build(nil, make([]SourceStats, 2), make([]SourceProfile, 3)); err == nil {
		t.Fatal("mismatched stats/profiles should fail")
	}
}

// TestBuildShortCondCard: statistics that estimate fewer conditions than
// the table has rows are an error, not an index out of range.
func TestBuildShortCondCard(t *testing.T) {
	sts := []SourceStats{
		{Name: "R1", DistinctItems: 10, CondCard: []float64{1, 2}},
		{Name: "R2", DistinctItems: 10, CondCard: []float64{3}},
	}
	profiles := UniformProfiles([]string{"R1", "R2"}, SourceProfile{PerQuery: 1, Support: SemijoinNative})
	_, err := Build(make([]cond.Cond, 2), sts, profiles)
	if err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("Build over a short CondCard: err = %v, want one naming R2", err)
	}
}

// TestBuildAllocs: a table is laid out in the same few allocations
// whatever its size.
func TestBuildAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	allocs := func(m, n int) float64 {
		sts := make([]SourceStats, n)
		names := make([]string, n)
		for j := range sts {
			names[j] = fmt.Sprintf("R%d", j+1)
			sts[j] = SourceStats{Name: names[j], DistinctItems: 100, Bytes: 800, CondCard: make([]float64, m)}
			for i := range sts[j].CondCard {
				sts[j].CondCard[i] = float64(10 * (i + j + 1))
			}
		}
		profiles := UniformProfiles(names, SourceProfile{PerQuery: 1, PerItemSent: 0.1, PerItemRecv: 0.1, BloomBitsPerItem: 8, Support: SemijoinNative})
		conds := make([]cond.Cond, m)
		return testing.AllocsPerRun(20, func() {
			if _, err := Build(conds, sts, profiles); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2, 3), allocs(5, 8)
	t.Logf("Build: %v allocations at m=2, n=3; %v at m=5, n=8", small, large)
	if small != large {
		t.Fatalf("Build allocates %v times at m=2, n=3 and %v at m=5, n=8; want the same", small, large)
	}
}

func TestTableCards(t *testing.T) {
	table := &CostTable{
		SourceNames: []string{"R1", "R2"},
		Domain:      100,
		Card:        [][]float64{{30, 40}, {10, 10}},
		Frac:        [][]float64{{0.3, 0.4}, {0.1, 0.1}},
	}
	if got := table.FirstRoundCard(0); got != 70 {
		t.Fatalf("FirstRoundCard(0) = %v, want 70", got)
	}
	// Sum of cards exceeding the domain clamps to it.
	table.Card[0][0] = 80
	if got := table.FirstRoundCard(0); got != 100 {
		t.Fatalf("FirstRoundCard clamp = %v, want 100", got)
	}
	if got := table.RoundCard(1, 50); got != 10 {
		t.Fatalf("RoundCard = %v, want 10", got)
	}
	// Fraction sums above 1 clamp to 1.
	table.Frac[1][0] = 0.7
	table.Frac[1][1] = 0.7
	if got := table.RoundCard(1, 50); got != 50 {
		t.Fatalf("RoundCard clamp = %v, want 50", got)
	}
}

func TestInvocationCounting(t *testing.T) {
	table := &CostTable{
		SourceNames: []string{"R1"},
		Domain:      10,
		Sq:          [][]float64{{1}},
		Card:        [][]float64{{1}},
		SjFixed:     [][]float64{{1}},
		SjPerItem:   [][]float64{{1}},
		Frac:        [][]float64{{0.1}},
		Load:        []float64{5},
	}
	table.SelectCost(0, 0)
	table.SemijoinCost(0, 0, 3)
	table.LoadCost(0)
	if table.Invocations != 3 {
		t.Fatalf("Invocations = %d, want 3", table.Invocations)
	}
	table.ResetInvocations()
	if table.Invocations != 0 {
		t.Fatal("ResetInvocations failed")
	}
}

func TestBuildBloomColumns(t *testing.T) {
	sc := workload.DMV()
	base := SourceProfile{
		PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.1,
		Support: SemijoinNative, ItemBytes: 8, BloomBitsPerItem: 10,
	}
	table, err := BuildFromSources(context.Background(), sc.Conds, sc.Sources, UniformProfiles(sc.SourceNames(), base))
	if err != nil {
		t.Fatal(err)
	}
	// The affine decomposition must reproduce the profile's cost function.
	for _, x := range []float64{0, 5, 50} {
		want := base.BloomSemijoinCost(x, table.Frac[0][0], table.Card[0][0])
		got := table.BloomSemijoinCost(0, 0, x)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("BloomSemijoinCost(%v) = %v, want %v", x, got, want)
		}
	}
	// Without bloom support the columns are +Inf.
	base.BloomBitsPerItem = 0
	table2, err := BuildFromSources(context.Background(), sc.Conds, sc.Sources, UniformProfiles(sc.SourceNames(), base))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(table2.BloomSemijoinCost(0, 0, 3), 1) {
		t.Fatal("bloom cost should be +Inf when unsupported")
	}
}

func TestSemijoinCostInfPropagates(t *testing.T) {
	table := &CostTable{
		SourceNames: []string{"R1"},
		SjFixed:     [][]float64{{math.Inf(1)}},
		SjPerItem:   [][]float64{{math.Inf(1)}},
	}
	if !math.IsInf(table.SemijoinCost(0, 0, 0), 1) {
		t.Fatal("unsupported semijoin should cost +Inf even for empty sets")
	}
}

func TestCostTableString(t *testing.T) {
	sc := workload.DMV()
	base := SourceProfile{
		PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.1,
		Support: SemijoinNative, ItemBytes: 8, BloomBitsPerItem: 10,
	}
	table, err := BuildFromSources(context.Background(), sc.Conds, sc.Sources, UniformProfiles(sc.SourceNames(), base))
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"cost table:", "c1:", "R3", "sjq-bloom", "lq(R1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table render missing %q:\n%s", want, out)
		}
	}
	// Unsupported semijoins render as infinity.
	base.Support = SemijoinNone
	base.BloomBitsPerItem = 0
	t2, err := BuildFromSources(context.Background(), sc.Conds, sc.Sources, UniformProfiles(sc.SourceNames(), base))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "∞") {
		t.Error("unsupported operations should render as ∞")
	}
}

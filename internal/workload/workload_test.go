package workload

import (
	"context"
	"testing"

	"fusionq/internal/set"
	"fusionq/internal/source"
)

func TestDMVScenario(t *testing.T) {
	sc := DMV()
	if len(sc.Sources) != 3 || len(sc.Conds) != 2 {
		t.Fatalf("DMV: %d sources, %d conds", len(sc.Sources), len(sc.Conds))
	}
	if got := sc.SourceNames(); got[0] != "R1" || got[2] != "R3" {
		t.Fatalf("SourceNames = %v", got)
	}
	// Verify the Figure 1 contents via the wrappers.
	dui, err := sc.Sources[0].Select(context.Background(), sc.Conds[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T80"); !dui.Equal(want) {
		t.Fatalf("R1 dui items = %v, want %v", dui, want)
	}
	sp, err := sc.Sources[2].Select(context.Background(), sc.Conds[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("S07", "T21"); !sp.Equal(want) {
		t.Fatalf("R3 sp items = %v, want %v", sp, want)
	}
}

func TestSynthDeterministic(t *testing.T) {
	cfg := SynthConfig{Seed: 9, NumSources: 3, TuplesPerSource: 100, Universe: 50, Selectivity: []float64{0.3, 0.6}}
	a, err := Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Sources {
		sa, err := a.Sources[j].Select(context.Background(), a.Conds[0])
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Sources[j].Select(context.Background(), b.Conds[0])
		if err != nil {
			t.Fatal(err)
		}
		if !sa.Equal(sb) {
			t.Fatalf("source %d not deterministic", j)
		}
	}
}

func TestSynthSelectivityRoughlyHolds(t *testing.T) {
	sc, err := Synth(SynthConfig{
		Seed: 3, NumSources: 1, TuplesPerSource: 20000, Universe: 20000,
		Selectivity: []float64{0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	items, err := sc.Sources[0].Select(context.Background(), sc.Conds[0])
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(items.Len()) / 20000
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("selectivity = %v, want ≈0.25", frac)
	}
}

func TestSynthBackendsAgree(t *testing.T) {
	base := SynthConfig{Seed: 5, NumSources: 2, TuplesPerSource: 200, Universe: 80, Selectivity: []float64{0.4}}
	var answers []set.Set
	for _, be := range []BackendKind{BackendRow, BackendKV, BackendOEM} {
		cfg := base
		cfg.Backend = be
		sc, err := Synth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Sources[0].Select(context.Background(), sc.Conds[0])
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, got)
	}
	if !answers[0].Equal(answers[1]) || !answers[0].Equal(answers[2]) {
		t.Fatalf("backends disagree: row=%d kv=%d oem=%d items",
			answers[0].Len(), answers[1].Len(), answers[2].Len())
	}
}

func TestSynthMixedBackendsAndCaps(t *testing.T) {
	sc, err := Synth(SynthConfig{
		Seed: 1, NumSources: 5, TuplesPerSource: 50, Universe: 40,
		Selectivity: []float64{0.5},
		Backend:     BackendMixed,
		Caps:        []source.Capabilities{{NativeSemijoin: true}, {PassedBindings: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Sources[0].Caps().NativeSemijoin {
		t.Fatal("source 0 should keep its explicit caps")
	}
	// Caps beyond the slice repeat the last entry.
	for j := 1; j < 5; j++ {
		if !sc.Sources[j].Caps().PassedBindings || sc.Sources[j].Caps().NativeSemijoin {
			t.Fatalf("source %d caps = %+v", j, sc.Sources[j].Caps())
		}
	}
}

func TestSynthZipfSkew(t *testing.T) {
	uniform, err := Synth(SynthConfig{Seed: 2, NumSources: 1, TuplesPerSource: 5000, Universe: 1000, Selectivity: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := Synth(SynthConfig{Seed: 2, NumSources: 1, TuplesPerSource: 5000, Universe: 1000, Selectivity: []float64{1.0}, Zipf: true})
	if err != nil {
		t.Fatal(err)
	}
	// Zipf concentrates mass: far fewer distinct items for the same tuples.
	if zipf.Relations[0].DistinctItems() >= uniform.Relations[0].DistinctItems() {
		t.Fatalf("zipf distinct %d >= uniform distinct %d",
			zipf.Relations[0].DistinctItems(), uniform.Relations[0].DistinctItems())
	}
}

func TestSynthConfigValidation(t *testing.T) {
	bad := []SynthConfig{
		{NumSources: 0, TuplesPerSource: 1, Universe: 1, Selectivity: []float64{0.5}},
		{NumSources: 1, TuplesPerSource: 0, Universe: 1, Selectivity: []float64{0.5}},
		{NumSources: 1, TuplesPerSource: 1, Universe: 0, Selectivity: []float64{0.5}},
		{NumSources: 1, TuplesPerSource: 1, Universe: 1, Selectivity: nil},
		{NumSources: 1, TuplesPerSource: 1, Universe: 1, Selectivity: []float64{0}},
		{NumSources: 1, TuplesPerSource: 1, Universe: 1, Selectivity: []float64{1.5}},
	}
	for i, cfg := range bad {
		if _, err := Synth(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestItemName(t *testing.T) {
	if ItemName(7) != "ID000007" {
		t.Fatalf("ItemName = %q", ItemName(7))
	}
}

func TestPayloadBytesAddsWideColumn(t *testing.T) {
	sc, err := Synth(SynthConfig{
		Seed: 4, NumSources: 1, TuplesPerSource: 10, Universe: 10,
		Selectivity: []float64{0.5}, PayloadBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := sc.Schema.Index("P")
	if !ok {
		t.Fatal("payload column P missing")
	}
	if v := sc.Relations[0].Row(0)[p]; len(v.Raw()) != 256 {
		t.Fatalf("payload width = %d, want 256", len(v.Raw()))
	}
	// Without payload there is no P column.
	sc2, err := Synth(SynthConfig{Seed: 4, NumSources: 1, TuplesPerSource: 10, Universe: 10, Selectivity: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc2.Schema.Index("P"); ok {
		t.Fatal("unexpected payload column")
	}
}

func TestCorrelationCouplesAttributes(t *testing.T) {
	count := func(rho float64) int {
		sc, err := Synth(SynthConfig{
			Seed: 5, NumSources: 1, TuplesPerSource: 3000, Universe: 3000,
			Selectivity: []float64{0.5, 0.5}, Correlation: rho,
		})
		if err != nil {
			t.Fatal(err)
		}
		equal := 0
		a1, _ := sc.Schema.Index("A1")
		a2, _ := sc.Schema.Index("A2")
		for _, row := range sc.Relations[0].Rows() {
			if row[a1].IntVal() == row[a2].IntVal() {
				equal++
			}
		}
		return equal
	}
	indep := count(0)
	coupled := count(0.9)
	// At rho=0.9 about 90% of tuples copy A1 into A2; independently equal
	// values are ~0.1%.
	if coupled < 2500 || indep > 100 {
		t.Fatalf("correlation not effective: coupled=%d indep=%d", coupled, indep)
	}
	// Out-of-range correlation rejected.
	if _, err := Synth(SynthConfig{
		Seed: 1, NumSources: 1, TuplesPerSource: 1, Universe: 1,
		Selectivity: []float64{0.5}, Correlation: 1.5,
	}); err == nil {
		t.Fatal("correlation > 1 should fail")
	}
}

func TestMustConds(t *testing.T) {
	cs := MustConds(3)
	if len(cs) != 3 || cs[2].String() != "A3 < 500" {
		t.Fatalf("MustConds = %v", cs)
	}
}

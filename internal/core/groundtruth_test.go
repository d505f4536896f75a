package core

import (
	"context"
	"math/rand"
	"testing"

	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// groundTruth computes the fusion-query answer directly from the raw
// relations, by definition: an item is an answer iff for every condition
// some tuple at some source carries the item and satisfies the condition.
func groundTruth(t *testing.T, sc *workload.Scenario) set.Set {
	t.Helper()
	satisfies := make([]map[string]bool, len(sc.Conds))
	for i := range satisfies {
		satisfies[i] = map[string]bool{}
	}
	for _, rel := range sc.Relations {
		schema := rel.Schema()
		mi := schema.MergeIndex()
		for _, tup := range rel.Rows() {
			for i, c := range sc.Conds {
				ok, err := c.Eval(schema, tup)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					satisfies[i][tup[mi].Raw()] = true
				}
			}
		}
	}
	var items []string
	for item := range satisfies[0] {
		all := true
		for i := 1; i < len(satisfies); i++ {
			if !satisfies[i][item] {
				all = false
				break
			}
		}
		if all {
			items = append(items, item)
		}
	}
	return set.New(items...)
}

// TestGroundTruthEquivalence is the correctness soak: across randomized
// scenarios (sizes, selectivities, capabilities, backends, correlation),
// every optimization algorithm's executed plan must produce exactly the
// answer computed directly from the data.
func TestGroundTruthEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(3)
		sel := make([]float64, m)
		for i := range sel {
			sel[i] = 0.05 + rng.Float64()*0.8
		}
		caps := make([]source.Capabilities, 1+rng.Intn(4))
		for j := range caps {
			switch rng.Intn(4) {
			case 0:
				caps[j] = source.Capabilities{NativeSemijoin: true, PassedBindings: true}
			case 1:
				caps[j] = source.Capabilities{PassedBindings: true}
			case 2:
				caps[j] = source.Capabilities{NativeSemijoin: true, PassedBindings: true, BloomSemijoin: true}
			default:
				caps[j] = source.Capabilities{}
			}
		}
		cfg := workload.SynthConfig{
			Seed:            rng.Int63(),
			NumSources:      2 + rng.Intn(4),
			TuplesPerSource: 50 + rng.Intn(300),
			Universe:        20 + rng.Intn(200),
			Selectivity:     sel,
			Backend:         workload.BackendMixed,
			Caps:            caps,
			Zipf:            rng.Intn(2) == 0,
			Correlation:     rng.Float64() * 0.8,
		}
		sc, err := workload.Synth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := groundTruth(t, sc)

		med := New(sc.Schema)
		for _, src := range sc.Sources {
			profile := stats.SourceProfile{
				PerQuery:    0.1 + rng.Float64()*2,
				PerItemSent: rng.Float64() * 0.01,
				PerItemRecv: rng.Float64() * 0.01,
				PerByteLoad: rng.Float64() * 0.0001,
				Support:     stats.SupportOf(src.Caps()),
				ItemBytes:   8,
			}
			if src.Caps().BloomSemijoin {
				profile.BloomBitsPerItem = 10
			}
			if err := med.AddSource(src, profile); err != nil {
				t.Fatal(err)
			}
		}
		for _, algo := range Algorithms() {
			opts := Options{Algorithm: algo}
			ans, err := med.QueryCondsContext(context.Background(), sc.Conds, opts)
			if err != nil {
				t.Fatalf("trial %d algo %s: %v", trial, algo, err)
			}
			if !ans.Items.Equal(want) {
				t.Fatalf("trial %d algo %s: answer %v != ground truth %v\nplan:\n%s",
					trial, algo, ans.Items, want, ans.Plan)
			}
		}
		// A records query's answer and records must also agree with a
		// direct per-source fetch of the ground truth.
		ans, err := med.QueryCondsContext(context.Background(), sc.Conds, Options{Algorithm: AlgoSJA, Records: true})
		if err != nil {
			t.Fatalf("trial %d records: %v", trial, err)
		}
		if !ans.Items.Equal(want) {
			t.Fatalf("trial %d records: answer mismatch", trial)
		}
		direct, err := med.Fetch(t.Context(), want)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Records.Len() != direct.Len() {
			t.Fatalf("trial %d records: %d records, direct fetch %d", trial, ans.Records.Len(), direct.Len())
		}
	}
}

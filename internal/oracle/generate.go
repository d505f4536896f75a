package oracle

import (
	"math/rand"
)

// Generation bounds. Instances are kept deliberately small: the oracle's
// power comes from running hundreds of diverse instances, not from any
// single large one, and small instances shrink to readable repros.
const (
	maxConds   = 3
	maxSources = 5
	maxTuples  = 120
	maxItems   = 80
)

// Generate derives a complete oracle instance from one seed. Equal seeds
// yield equal instances — the whole harness's reproducibility rests on this
// being the only entry point for randomness.
func Generate(seed int64) Instance {
	rng := rand.New(rand.NewSource(seed))
	in := Instance{
		Seed:            seed,
		NumSources:      1 + rng.Intn(maxSources),
		TuplesPerSource: 5 + rng.Intn(maxTuples-4),
		Universe:        4 + rng.Intn(maxItems-3),
		Backend:         rng.Intn(4),
		Zipf:            rng.Float64() < 0.2,
		Retries:         rng.Intn(3),
	}

	m := 1 + rng.Intn(maxConds)
	in.Selectivity = make([]float64, m)
	for i := range in.Selectivity {
		// Spread selectivities across decades: very selective conditions
		// make semijoins attractive, broad ones favor plain selections.
		in.Selectivity[i] = 0.02 + 0.88*rng.Float64()*rng.Float64()
	}
	if rng.Float64() < 0.3 {
		in.Correlation = rng.Float64()
	}
	if rng.Float64() < 0.2 {
		in.PayloadBytes = 16 << rng.Intn(5) // 16..256 bytes
	}

	in.CapTiers = make([]int, in.NumSources)
	in.LatencyUS = make([]int, in.NumSources)
	in.MaxConns = make([]int, in.NumSources)
	for j := range in.CapTiers {
		// Weighted tiers: native-capable sources dominate, emulation-only
		// is common, selection-only stays a minority so most instances
		// exercise semijoin machinery.
		switch p := rng.Float64(); {
		case p < 0.40:
			in.CapTiers[j] = TierNative
		case p < 0.60:
			in.CapTiers[j] = TierBloom
		case p < 0.90:
			in.CapTiers[j] = TierEmulated
		default:
			in.CapTiers[j] = TierNone
		}
		in.LatencyUS[j] = 200 + rng.Intn(4800)
		in.MaxConns[j] = 1 + rng.Intn(4)
	}

	// One draw once decided whether the instance ran with rounds overlapped;
	// every instance does now, and the draw stays so that a seed generates
	// the instance it always has.
	rng.Float64()
	// One draw once decided whether the instance ran its plans against a
	// source-answer cache; the mediator keeps none now, and the draw stays
	// for the same reason.
	rng.Float64()
	if rng.Float64() < 0.35 {
		in.Faults = true
		in.FaultRate = 0.01 + 0.24*rng.Float64()
	}
	in.Deadline = rng.Float64() < 0.2
	if rng.Float64() < 0.3 {
		in.Replicate = true
		in.ChurnKillAll = rng.Float64() < 0.5
	}
	// Drawn last so enabling these sweeps perturbs no earlier field (and
	// in this order, so older seeds keep their WireTrace draw).
	in.WireTrace = rng.Float64() < 0.4
	in.PlanCache = rng.Float64() < 0.4
	return in
}

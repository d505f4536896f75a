package oracle

import (
	"context"
)

// shrinkTransforms are the greedy reductions the shrinker tries, most
// aggressive first: structural cuts (fewer sources, fewer conditions, less
// data), then feature removal (sweeps, skew, heterogeneity). Each transform
// either returns a strictly simpler instance or reports no change.
var shrinkTransforms = []struct {
	name  string
	apply func(Instance) (Instance, bool)
}{
	{"drop-source", func(in Instance) (Instance, bool) {
		if in.NumSources <= 1 {
			return in, false
		}
		in.NumSources--
		in.CapTiers = append([]int(nil), in.CapTiers[:in.NumSources]...)
		in.LatencyUS = append([]int(nil), in.LatencyUS[:in.NumSources]...)
		in.MaxConns = append([]int(nil), in.MaxConns[:in.NumSources]...)
		return in, true
	}},
	{"drop-condition", func(in Instance) (Instance, bool) {
		if len(in.Selectivity) <= 1 {
			return in, false
		}
		in.Selectivity = append([]float64(nil), in.Selectivity[:len(in.Selectivity)-1]...)
		return in, true
	}},
	{"halve-tuples", func(in Instance) (Instance, bool) {
		if in.TuplesPerSource <= 1 {
			return in, false
		}
		in.TuplesPerSource /= 2
		if in.TuplesPerSource < 1 {
			in.TuplesPerSource = 1
		}
		return in, true
	}},
	{"halve-universe", func(in Instance) (Instance, bool) {
		if in.Universe <= 1 {
			return in, false
		}
		in.Universe /= 2
		if in.Universe < 1 {
			in.Universe = 1
		}
		return in, true
	}},
	{"drop-faults", func(in Instance) (Instance, bool) {
		if !in.Faults {
			return in, false
		}
		in.Faults = false
		in.FaultRate = 0
		return in, true
	}},
	{"drop-deadline", func(in Instance) (Instance, bool) {
		if !in.Deadline {
			return in, false
		}
		in.Deadline = false
		return in, true
	}},
	{"drop-wiretrace", func(in Instance) (Instance, bool) {
		if !in.WireTrace {
			return in, false
		}
		in.WireTrace = false
		return in, true
	}},
	{"drop-plancache", func(in Instance) (Instance, bool) {
		if !in.PlanCache {
			return in, false
		}
		in.PlanCache = false
		return in, true
	}},
	{"drop-zipf", func(in Instance) (Instance, bool) {
		if !in.Zipf {
			return in, false
		}
		in.Zipf = false
		return in, true
	}},
	{"drop-correlation", func(in Instance) (Instance, bool) {
		if in.Correlation == 0 {
			return in, false
		}
		in.Correlation = 0
		return in, true
	}},
	{"drop-payload", func(in Instance) (Instance, bool) {
		if in.PayloadBytes == 0 {
			return in, false
		}
		in.PayloadBytes = 0
		return in, true
	}},
	{"drop-retries", func(in Instance) (Instance, bool) {
		if in.Retries == 0 {
			return in, false
		}
		in.Retries = 0
		return in, true
	}},
	{"uniform-caps", func(in Instance) (Instance, bool) {
		changed := false
		tiers := append([]int(nil), in.CapTiers...)
		for j, t := range tiers {
			if t != TierNative {
				tiers[j] = TierNative
				changed = true
			}
		}
		in.CapTiers = tiers
		return in, changed
	}},
	{"single-conn", func(in Instance) (Instance, bool) {
		changed := false
		conns := append([]int(nil), in.MaxConns...)
		for j, k := range conns {
			if k != 1 {
				conns[j] = 1
				changed = true
			}
		}
		in.MaxConns = conns
		return in, changed
	}},
	{"uniform-latency", func(in Instance) (Instance, bool) {
		changed := false
		lat := append([]int(nil), in.LatencyUS...)
		for j, l := range lat {
			if l != 1000 {
				lat[j] = 1000
				changed = true
			}
		}
		in.LatencyUS = lat
		return in, changed
	}},
}

// Shrink greedily minimizes a failing instance: it repeatedly tries each
// transform and keeps the simplified instance whenever re-checking it still
// reproduces at least one of the original failure's properties, until no
// transform makes progress or maxChecks re-checks have been spent
// (non-positive means the default of 200). It returns the minimal instance
// and its failures; on an unshrinkable input it returns the original pair.
func (d *Driver) Shrink(ctx context.Context, inst Instance, orig []Failure, maxChecks int) (Instance, []Failure) {
	if len(orig) == 0 {
		return inst, orig
	}
	if maxChecks <= 0 {
		maxChecks = 200
	}
	want := properties(orig)
	cur, curFails := inst, orig
	checks := 0
	for {
		progressed := false
		for _, tr := range shrinkTransforms {
			for {
				if checks >= maxChecks {
					return cur, curFails
				}
				cand, changed := tr.apply(cur)
				if !changed {
					break
				}
				checks++
				fs, err := d.Check(ctx, cand)
				if err != nil || !anyProperty(fs, want) {
					break
				}
				cur, curFails = cand, fs
				progressed = true
			}
		}
		if !progressed {
			return cur, curFails
		}
	}
}

// anyProperty reports whether any failure's property is in want.
func anyProperty(fs []Failure, want map[string]bool) bool {
	for _, f := range fs {
		if want[f.Property] {
			return true
		}
	}
	return false
}

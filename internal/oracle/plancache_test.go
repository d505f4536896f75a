package oracle

import (
	"context"
	"testing"
)

// TestPlanCacheSweep forces the plan-cache coherence sweep on several
// instances: cached plans must answer exactly like fresh ones, roster churn
// must invalidate every old-epoch entry, and stale plans must never
// execute.
func TestPlanCacheSweep(t *testing.T) {
	d := &Driver{}
	ctx := context.Background()
	checked := 0
	for seed := int64(0); seed < 8; seed++ {
		inst := Generate(*oracleSeed + seed)
		inst.PlanCache = true
		// The other sweeps are covered by TestOracle; keep this one focused
		// (and fast) on the plan-cache phase.
		inst.Faults, inst.Deadline, inst.Replicate, inst.WireTrace = false, false, false, false
		if inst.NumSources >= 2 {
			checked++
		}
		fs, err := d.Check(ctx, inst)
		if err != nil {
			t.Fatalf("seed %d: instance could not be built: %v", inst.Seed, err)
		}
		if len(fs) > 0 {
			reportFailures(t, d, inst, fs)
		}
	}
	if checked == 0 {
		t.Fatal("every generated instance was single-source; the sweep never ran")
	}
}

package oracle

import (
	"context"
	"testing"
	"time"

	"fusionq/internal/obs"
)

// TestWireTraceSweep forces the trace-completeness sweep on several
// instances: every exchange over the loopback wire servers must leave a
// grafted, skew-normalized, byte-reconciled server fragment, and the
// answers must still match the reference.
func TestWireTraceSweep(t *testing.T) {
	d := &Driver{}
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		inst := Generate(*oracleSeed + seed)
		inst.WireTrace = true
		// The other sweeps are covered by TestOracle; keep this one focused
		// (and fast) on the wire phase.
		inst.Faults, inst.Deadline, inst.Replicate = false, false, false
		fs, err := d.Check(ctx, inst)
		if err != nil {
			t.Fatalf("seed %d: instance could not be built: %v", inst.Seed, err)
		}
		if len(fs) > 0 {
			reportFailures(t, d, inst, fs)
		}
	}
}

// TestCheckFragmentsCatchesViolations proves the sweep's checks have teeth
// against hand-built traces: a missing graft, an unfinished graft, and a
// fragment escaping its wire envelope must each be flagged.
func TestCheckFragmentsCatchesViolations(t *testing.T) {
	base := time.Now()
	wire := func(id int64) obs.SpanData {
		return obs.SpanData{ID: id, Kind: obs.KindWire, Name: "sq @ x", Start: base, DurationUS: 1000, Finished: true}
	}
	cases := []struct {
		name  string
		spans []obs.SpanData
		prop  string
	}{
		{"missing", []obs.SpanData{wire(1)}, "wire-frag-missing"},
		{"doubled", []obs.SpanData{wire(1),
			{ID: 2, Parent: 1, Kind: obs.KindServer, Start: base, DurationUS: 10, Finished: true},
			{ID: 3, Parent: 1, Kind: obs.KindServer, Start: base, DurationUS: 10, Finished: true}},
			"wire-frag-missing"},
		{"unfinished", []obs.SpanData{wire(1),
			{ID: 2, Parent: 1, Kind: obs.KindServer, Start: base, DurationUS: 0}},
			"wire-frag-missing"},
		{"escapes", []obs.SpanData{wire(1),
			{ID: 2, Parent: 1, Kind: obs.KindServer, Start: base.Add(900 * time.Microsecond), DurationUS: 500, Finished: true}},
			"wire-frag-nesting"},
	}
	for _, tc := range cases {
		_, _, fs := checkFragments(tc.spans, "test")
		if !hasProperty(fs, tc.prop) {
			t.Errorf("%s: expected %s violation, got %v", tc.name, tc.prop, fs)
		}
	}
	// A properly nested fragment passes and its bytes are totaled.
	in, out, fs := checkFragments([]obs.SpanData{wire(1),
		{ID: 2, Parent: 1, Kind: obs.KindServer, Start: base.Add(100 * time.Microsecond), DurationUS: 500, Finished: true,
			Attrs: map[string]string{"bytesIn": "17", "bytesOut": "41"}}}, "test")
	if len(fs) != 0 || in != 17 || out != 41 {
		t.Errorf("clean trace flagged or mistotaled: %d in, %d out, %v", in, out, fs)
	}
}

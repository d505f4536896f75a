package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// refuse makes a counting source fail every operation but the statistics
// exchange, or only that one.
func refuse(statsOnly bool) func(context.Context, source.Op, int) error {
	return func(_ context.Context, op source.Op, _ int) error {
		if (op == source.OpStats) == statsOnly {
			return errors.New("refused")
		}
		return nil
	}
}

// TestEverySpanEnds: whatever a query's outcome, every span it started has
// ended by the time it returns, so no trace export shows one in flight. The
// query is answered, fails in planning, fails in execution, and fails at a
// remote replica, which takes the error path of the fabric's attempt and of
// the wire exchange under it.
func TestEverySpanEnds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before func(context.Context, source.Op, int) error
		remote bool
	}{
		{name: "answered"},
		{name: "planning fails", before: refuse(true)},
		{name: "execution fails", before: refuse(false)},
		{name: "remote replica fails", before: refuse(false), remote: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := synth(t, workload.SynthConfig{Seed: 7, NumSources: 2, TuplesPerSource: 200, Universe: 300, Selectivity: []float64{0.3, 0.6}})
			m := New(sc.Schema)
			m.SetNetwork(netsim.NewNetwork(1))
			if tc.remote {
				specs := make([]ReplicaSpec, 2)
				for r := range specs {
					c := counting(source.NewWrapper(fmt.Sprintf("R1-%c", 'a'+r), source.NewRowBackend(sc.Relations[0]), sc.Sources[0].Caps()))
					c.interfere(tc.before)
					srv, err := wire.ServeConfig(c, "127.0.0.1:0", wire.Config{Logf: func(string, ...interface{}) {}})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					cli, err := wire.DialContext(t.Context(), srv.Addr())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { cli.Close() })
					specs[r] = ReplicaSpec{Source: cli, Link: benchLink(0)}
				}
				if _, err := m.AddReplicatedSource("R1", specs, fabric.Options{NoSpeculation: true}); err != nil {
					t.Fatal(err)
				}
			} else {
				c := counting(sc.Sources[0])
				c.interfere(tc.before)
				if err := m.AddSourceLink(c, benchLink(0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AddSourceLink(sc.Sources[1], benchLink(1)); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace()
			_, err := m.QueryCondsContext(obs.With(t.Context(), &obs.Obs{Trace: tr}), distinctConds(0), Options{})
			if (err != nil) != (tc.before != nil) {
				t.Fatalf("err = %v, want an error: %v", err, tc.before != nil)
			}
			refused := false
			for _, sp := range tr.Export() {
				if !sp.Finished {
					t.Errorf("%s span %q never ended", sp.Kind, sp.Name)
				}
				refused = refused || sp.Kind == obs.KindWire && sp.Error != ""
			}
			if tc.remote && !refused {
				t.Fatalf("no wire span failed: the refusing replica was never asked (%d spans)", tr.Len())
			}
		})
	}
}

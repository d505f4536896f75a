package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload once at a twentieth of its counts, end to
// end and traced: it exercises the deployments, the load generator, the
// correctness gate and the tracer, and checks that each run reports exactly
// the metrics BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := t.TempDir()
	for _, w := range workloads {
		for _, mode := range []struct {
			trace int
			defs  []metricDef
		}{{0, endToEnd}, {1, perLayer}} {
			res, st, err := runWorkload(ctx, w.shortened(), options{seed: 1, seconds: 1, trace: mode.trace, short: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if st.Rounds != 1 || st.Samples == 0 || st.GoVersion == "" || st.Commit == "" {
				t.Errorf("%s trace=%d: incomplete stamp %+v", w.name, mode.trace, st)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, def := range mode.defs {
				v, ok := res.Metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("%s trace=%d: metric %s missing or in unit %q", w.name, mode.trace, def.Name, v.Unit)
				}
				if mode.trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, def.Name, v.Value)
				}
			}
			if mode.trace == 1 {
				if st.TracedQueries != 2 {
					t.Errorf("%s: traced %d queries, want 2", w.name, st.TracedQueries)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json the file the code defines.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's manifest; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

// TestReadmeNamesEveryMetric keeps the glossary in README.md complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			if !bytes.Contains(readme, []byte("`"+def.Name+"`")) {
				t.Errorf("README.md does not mention metric %s", def.Name)
			}
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
}

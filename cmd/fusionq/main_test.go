package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

const (
	r1CSV = "L,V,D\nJ55,dui,1993\nT21,sp,1994\nT80,dui,1993\n"
	r2CSV = "L,V,D\nT21,dui,1996\nJ55,sp,1996\nT11,sp,1993\n"
	r3CSV = "L,V,D\nT21,sp,1993\nS07,sp,1996\nS07,sp,1993\n"
)

const dmvSQL = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"

func writeCSVs(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, 0, 3)
	for name, data := range map[string]string{"r1.csv": r1CSV, "r2.csv": r2CSV, "r3.csv": r3CSV} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestRunEndToEnd(t *testing.T) {
	csvs := writeCSVs(t)
	for _, algo := range []string{"filter", "sja", "sja+", "rt-sja"} {
		if err := run(t.Context(), dmvSQL, csvs, nil, "", "", "native", 0, core.Options{Algorithm: core.Algorithm(algo), Records: true}, 0, false, true, "", false, ""); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
	}
}

func TestRunExplain(t *testing.T) {
	csvs := writeCSVs(t)
	if err := run(t.Context(), dmvSQL, csvs, nil, "", "", "bindings", 0, core.Options{Algorithm: "sja"}, 0, true, false, "", false, ""); err != nil {
		t.Fatalf("explain: %v", err)
	}
}

// TestRunParallel runs with no flag for it, as every run does: rounds
// overlap across sources, and -conns bounds the overlap at one source.
func TestRunParallel(t *testing.T) {
	csvs := writeCSVs(t)
	if err := run(t.Context(), dmvSQL, csvs, nil, "", "", "none", 0, core.Options{Algorithm: "filter"}, 0, false, true, "", false, ""); err != nil {
		t.Fatalf("one connection a source: %v", err)
	}
	opts := core.Options{Algorithm: "sja"}
	if err := run(t.Context(), dmvSQL, csvs, nil, "", "", "bindings", 2, opts, 0, false, false, "", false, ""); err != nil {
		t.Fatalf("two connections a source: %v", err)
	}
}

func TestRunWithRemoteSource(t *testing.T) {
	csvs := writeCSVs(t)
	// Serve R3's data over TCP and mix it with two local CSVs.
	sc := workload.DMV()
	srv, err := wire.ServeConfig(source.NewWrapper("remote3", source.NewRowBackend(sc.Relations[2]),
		source.Capabilities{NativeSemijoin: true, PassedBindings: true}), "127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := run(t.Context(), dmvSQL, csvs[:2], []string{srv.Addr()}, "", "", "native", 0, core.Options{Algorithm: "sja+"}, 0, false, false, "", false, ""); err != nil {
		t.Fatalf("remote mix: %v", err)
	}
}

// TestRunTraceJSON exports a span trace and checks its shape: one root
// query span whose query ID every span shares, with plan/execute phases and
// at least one step beneath.
func TestRunTraceJSON(t *testing.T) {
	csvs := writeCSVs(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	opts := core.Options{Algorithm: "sja"}
	if err := run(t.Context(), dmvSQL, csvs, nil, "", "", "native", 0, opts, 0, false, false, path, false, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanData
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(spans) < 4 {
		t.Fatalf("trace has %d spans, want query+phases+steps", len(spans))
	}
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Kind]++
		if sp.QueryID == "" || sp.QueryID != spans[0].QueryID {
			t.Fatalf("span %d qid %q diverges from %q", sp.ID, sp.QueryID, spans[0].QueryID)
		}
	}
	if kinds[obs.KindQuery] != 1 || kinds[obs.KindPhase] < 2 || kinds[obs.KindStep] < 1 {
		t.Fatalf("span kinds = %v", kinds)
	}
}

func TestRunErrors(t *testing.T) {
	csvs := writeCSVs(t)
	cases := []struct {
		name string
		f    func() error
	}{
		{"no sql", func() error {
			return run(t.Context(), "", csvs, nil, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
		{"no sources", func() error {
			return run(t.Context(), dmvSQL, nil, nil, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
		{"bad caps", func() error {
			return run(t.Context(), dmvSQL, csvs, nil, "", "", "wizard", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
		{"bad algo", func() error {
			return run(t.Context(), dmvSQL, csvs, nil, "", "", "native", 0, core.Options{Algorithm: "wizard"}, 0, false, false, "", false, "")
		}},
		{"missing file", func() error {
			return run(t.Context(), dmvSQL, []string{"/nonexistent/x.csv"}, nil, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
		{"bad remote", func() error {
			return run(t.Context(), dmvSQL, nil, []string{"127.0.0.1:1"}, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
		{"not fusion", func() error {
			return run(t.Context(), "SELECT u1.V FROM U u1", csvs, nil, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, "")
		}},
	}
	for _, c := range cases {
		if err := c.f(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunIncompatibleSchemas(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(a, []byte("L,V\nx,dui\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("K,W,Z\ny,sp,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'"
	if err := run(t.Context(), sql, []string{a, b}, nil, "", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, ""); err == nil {
		t.Fatal("incompatible schemas should fail")
	}
}

func TestRunWithCatalog(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{"r1.csv": r1CSV, "r2.csv": r2CSV, "r3.csv": r3CSV} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	catJSON := `{"merge": "L", "sources": [
	  {"csv": "r1.csv"}, {"csv": "r2.csv", "caps": "bindings"}, {"csv": "r3.csv", "caps": "none"}
	]}`
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte(catJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), dmvSQL, nil, nil, path, "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, ""); err != nil {
		t.Fatalf("catalog run: %v", err)
	}
	if err := run(t.Context(), dmvSQL, nil, nil, "/nonexistent.json", "", "native", 0, core.Options{Algorithm: "sja"}, 0, false, false, "", false, ""); err == nil {
		t.Fatal("missing catalog should fail")
	}
}

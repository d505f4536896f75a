package bench

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registered %d experiments, want 15 (E1..E15)", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want)
		}
	}
	if _, ok := ByID("E1"); !ok {
		t.Fatal("ByID(E1) missing")
	}
	if _, ok := ByID("E16"); ok {
		t.Fatal("ByID(E16) should miss")
	}
}

// TestAllExperimentsRun executes the full suite once. Each Run validates its
// own claims internally (hierarchy, crossover position, etc.), and the
// rendered tables, one blank line after each as cmd/fqbench prints them,
// must equal testdata/tables.golden byte for byte: every number in them is
// simulated cost. `go test ./internal/bench -update` rewrites the file.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	const golden = "testdata/tables.golden"
	want, err := os.ReadFile(golden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			out := tab.Render() + "\n"
			if !strings.HasPrefix(out, "== "+e.ID+": ") {
				t.Fatalf("%s: render missing ID:\n%s", e.ID, out)
			}
			if !*update && !strings.Contains(string(want), out) {
				t.Fatalf("%s: table is not the one in %s (rerun with -update if the change is meant):\n%s", e.ID, golden, out)
			}
			got.WriteString(out)
		})
	}
	switch {
	case t.Failed():
	case *update:
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	case got.String() != string(want):
		t.Fatalf("%s holds tables, or an order of tables, that the suite does not produce", golden)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "longcol"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("wide-cell", 10000.0)
	out := tab.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "wide-cell") || !strings.Contains(lines[4], "10000") {
		t.Fatalf("row rendering:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		2500:  "2500",
		12.34: "12.3",
		0.25:  "0.250",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

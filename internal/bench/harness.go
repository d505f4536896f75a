// Package bench implements the experiment suite recorded in EXPERIMENTS.md.
// The EDBT 1998 paper has no measured evaluation section — its figures are
// worked examples — so the suite regenerates those figures' economics and
// validates every quantitative claim the paper makes: the plan-class
// hierarchy (SJA ≤ SJ ≤ FILTER), per-source adaptation under heterogeneous
// capabilities, the selection/semijoin crossover, optimizer complexity
// (linear in n, factorial in m, O(mn) greedy), postoptimization gains, the
// join-over-union baseline blowup, two-phase processing, and estimated
// versus measured execution cost.
//
// Every number is simulated cost, so every table is deterministic: each
// experiment asserts its claims inside its Run and produces a Table,
// cmd/fqbench prints them, and testdata/tables.golden pins them. Wall-clock
// questions belong to benchmark/ and the testing.B layer benchmarks.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's output: a titled grid of rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := len(cell)
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one entry of the suite.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment under ctx; long experiments observe
	// cancellation between plan executions.
	Run func(ctx context.Context) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns the experiments in numeric order of ID: E1, E2, …, E15.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

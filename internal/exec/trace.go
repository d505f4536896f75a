package exec

import (
	"fmt"
	"strings"
	"time"
)

// StepTrace records what one plan step did at execution time — the
// EXPLAIN-ANALYZE view of a fusion-query plan.
type StepTrace struct {
	// Index is the step's position in the plan (0-based).
	Index int
	// Text is the step in the paper's notation.
	Text string
	// OutItems is the cardinality of the step's output set (or loaded
	// relation's distinct items). Zero when the step failed.
	OutItems int
	// Queries is the number of charged source queries the step issued
	// (more than one for emulated semijoins, zero for local steps and
	// short-circuited semijoins), including failed attempts.
	Queries int
	// Retries counts the step's transient-failure re-issues: whole-step
	// re-attempts, or per-binding re-attempts for emulated semijoins.
	Retries int
	// Errors counts attempts that failed — every retry implies one error,
	// and a step that ultimately failed has one more error than retries.
	Errors int
	// Failovers counts how many times the step's exchanges moved to another
	// replica of a logical source (zero for unreplicated sources).
	Failovers int
	// Hedges counts backup exchanges the replica fabric launched for this
	// step when the primary exceeded its latency deadline.
	Hedges int
	// Err is the step's final error text; empty when the step succeeded.
	// Failed steps appear in the trace with the work they charged.
	Err string
	// Elapsed is the simulated time the exchanges the step issued took,
	// under either scheduler (zero without a network or for local steps).
	Elapsed time.Duration
}

// RenderTrace formats a trace as an aligned table. Steps that failed are
// footnoted with their error text below the table.
func RenderTrace(traces []StepTrace) string {
	if len(traces) == 0 {
		return ""
	}
	width := 0
	for _, tr := range traces {
		if len(tr.Text) > width {
			width = len(tr.Text)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%3s  %-*s  %9s  %7s  %7s  %6s  %9s  %6s  %12s\n",
		"#", width, "step", "out items", "queries", "retries", "errors", "failovers", "hedges", "elapsed")
	for _, tr := range traces {
		fmt.Fprintf(&b, "%3d  %-*s  %9d  %7d  %7d  %6d  %9d  %6d  %12v\n",
			tr.Index+1, width, tr.Text, tr.OutItems, tr.Queries,
			tr.Retries, tr.Errors, tr.Failovers, tr.Hedges, tr.Elapsed.Round(time.Microsecond))
	}
	for _, tr := range traces {
		if tr.Err != "" {
			fmt.Fprintf(&b, "  ! step %d failed: %s\n", tr.Index+1, tr.Err)
		}
	}
	return b.String()
}

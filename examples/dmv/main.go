// DMV: the paper's running example (Figure 1 and the Section 1 query).
//
// Three state DMVs keep overlapping violation records. The fusion query
// looks for drivers with both a "driving under the influence" (dui) and a
// "speeding" (sp) violation, possibly recorded in different states. The
// example prints the relations, runs every optimization algorithm, and
// shows how the plans differ while all returning the paper's answer
// {J55, T21}.
//
// Run with: go run ./examples/dmv
package main

import (
	"context"
	"fmt"
	"log"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/workload"
)

func main() {
	sc := workload.DMV()

	fmt.Println("Figure 1 relations:")
	for j, rel := range sc.Relations {
		fmt.Printf("\nR%d:\n%s", j+1, rel)
	}

	ctx := context.Background()
	m := core.New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(42))
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}

	sql := `SELECT u1.L FROM U u1, U u2
	        WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`
	fmt.Printf("\nquery:\n%s\n", sql)

	for _, algo := range core.Algorithms() {
		ans, err := m.Query(ctx, sql, core.Options{Algorithm: algo})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %-11s answer %s, estimated cost %.4f s, %d source queries, total work %v ---\n",
			algo, ans.Items, ans.EstimatedCost, ans.Exec.SourceQueries, ans.Exec.TotalWork)
		fmt.Print(ans.Plan)
	}

	// The two-phase follow-up of Section 1: the matching drivers' full
	// violation records, asked for with the query.
	ans, err := m.Query(ctx, sql, core.Options{Records: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphase two (%s) — full records of %s:\n%s", ans.Plan.Records, ans.Items, ans.Records)
}

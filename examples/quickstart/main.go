// Quickstart: the smallest end-to-end use of the fusion-query engine.
//
// It builds two overlapping in-memory sources, registers them with a
// mediator, runs a fusion query in SQL, and prints the answer and the plan
// that produced it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/source"
)

func main() {
	// The common view every source wrapper exports: ID is the merge
	// attribute identifying the real-world entity.
	schema := relation.MustSchema("ID",
		relation.Column{Name: "ID", Kind: relation.KindString},
		relation.Column{Name: "Tag", Kind: relation.KindString},
		relation.Column{Name: "Score", Kind: relation.KindInt},
	)

	// Two autonomous sources with overlapping, incomplete information.
	r1 := relation.NewRelation(schema)
	r1.MustInsert(relation.String("alpha"), relation.String("go"), relation.Int(9))
	r1.MustInsert(relation.String("beta"), relation.String("db"), relation.Int(7))
	r1.MustInsert(relation.String("gamma"), relation.String("go"), relation.Int(3))

	r2 := relation.NewRelation(schema)
	r2.MustInsert(relation.String("alpha"), relation.String("db"), relation.Int(8))
	r2.MustInsert(relation.String("beta"), relation.String("go"), relation.Int(2))
	r2.MustInsert(relation.String("delta"), relation.String("db"), relation.Int(5))

	// A mediator over a simulated wide-area network.
	ctx := context.Background()
	m := core.New(schema)
	m.SetNetwork(netsim.NewNetwork(1))
	caps := source.Capabilities{NativeSemijoin: true, PassedBindings: true}
	for name, rel := range map[string]*relation.Relation{"S1": r1, "S2": r2} {
		src := source.NewWrapper(name, source.NewRowBackend(rel), caps)
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}

	// A fusion query: entities that have a 'go' record somewhere AND a
	// high-score record somewhere (possibly at a different source).
	sql := `SELECT u1.ID FROM U u1, U u2
	        WHERE u1.ID = u2.ID AND u1.Tag = 'go' AND u2.Score >= 7`
	// Records asks for the entities' full records too: the planner picks a
	// fetch round after the answer (phase two) or the final round's queries.
	ans, err := m.Query(ctx, sql, core.Options{Records: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("answer: %s\n\n", ans.Items)
	fmt.Printf("plan (%s, estimated cost %.4f s):\n%s\n", ans.Plan.Class, ans.EstimatedCost, ans.Plan)
	fmt.Printf("executed %d source queries, total work %v\n", ans.Exec.SourceQueries, ans.Exec.TotalWork)
	fmt.Printf("\nfull records of the answer entities (%s):\n%s", ans.Plan.Records, ans.Records)
}

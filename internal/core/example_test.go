package core_test

import (
	"context"
	"fmt"
	"log"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// Example runs the paper's Section 1 query over the Figure 1 DMV relations
// and prints the answer.
func Example() {
	sc := workload.DMV()
	m := core.New(sc.Schema)
	m.SetNetwork(netsim.NewNetwork(1))
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}
	ans, err := m.Query(context.Background(), `SELECT u1.L FROM U u1, U u2
	                     WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`,
		core.Options{Algorithm: core.AlgoSJA})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.Items)
	// Output: {J55, T21}
}

// ExampleMediator_Fetch shows the two-phase pattern of Section 1: identify
// the matching items first, then fetch their full records.
func ExampleMediator_Fetch() {
	sc := workload.DMV()
	m := core.New(sc.Schema)
	for _, src := range sc.Sources {
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}
	ans, err := m.Query(context.Background(), `SELECT u1.L FROM U u1, U u2
	                     WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	full, err := m.Fetch(context.Background(), ans.Items)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d answers, %d full records\n", ans.Items.Len(), full.Len())
	// Output: 2 answers, 5 full records
}

// ExampleMediator_QueryCondsContext builds a mediator from scratch — schema,
// relation, wrapper — and queries with parsed conditions instead of SQL.
func ExampleMediator_QueryCondsContext() {
	schema := relation.MustSchema("ID",
		relation.Column{Name: "ID", Kind: relation.KindString},
		relation.Column{Name: "Score", Kind: relation.KindInt},
	)
	rel := relation.NewRelation(schema)
	rel.MustInsert(relation.String("alpha"), relation.Int(9))
	rel.MustInsert(relation.String("beta"), relation.Int(3))

	m := core.New(schema)
	src := source.NewWrapper("S1", source.NewRowBackend(rel),
		source.Capabilities{NativeSemijoin: true, PassedBindings: true})
	if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
		log.Fatal(err)
	}
	ans, err := m.QueryCondsContext(context.Background(), []cond.Cond{cond.MustParse("Score >= 5")}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.Items)
	// Output: {alpha}
}

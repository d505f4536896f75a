// Bibsearch: the bibliographic-search scenario the paper's introduction
// uses to motivate two-phase processing. Several digital libraries index
// overlapping sets of documents; records are wide (abstracts), so the
// search first identifies matching document ids (phase one, items only)
// and then fetches the full records of just the answers (phase two).
//
// The example contrasts the bytes moved by the two-phase pipeline against
// fetching full matching records for every condition up front.
//
// Run with: go run ./examples/bibsearch
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/source"
)

// libraries builds three overlapping bibliographic sources with wide
// abstract fields.
func libraries(schema *relation.Schema) map[string]*relation.Relation {
	type doc struct {
		id       string
		topic    string
		year     int64
		cites    int64
		abstract string
	}
	pad := func(s string) string { return s + strings.Repeat(" lorem-ipsum", 40) }
	docs := map[string][]doc{
		"ACM-DL": {
			{"doc-001", "databases", 1996, 120, pad("mediators for heterogeneous sources")},
			{"doc-002", "networks", 1995, 80, pad("routing in wide area networks")},
			{"doc-003", "databases", 1997, 45, pad("semijoin programs for distributed joins")},
			{"doc-007", "ai", 1994, 200, pad("resolution-based query planning")},
		},
		"CiteMirror": {
			{"doc-001", "databases", 1996, 118, pad("mediators for heterogeneous sources (mirror)")},
			{"doc-003", "databases", 1997, 52, pad("semijoin programs for distributed joins (mirror)")},
			{"doc-004", "databases", 1993, 300, pad("wrappers and query translation")},
			{"doc-005", "theory", 1996, 15, pad("complexity of containment")},
		},
		"UnivRepo": {
			{"doc-002", "networks", 1995, 85, pad("routing in wide area networks (preprint)")},
			{"doc-004", "databases", 1993, 290, pad("wrappers and query translation (preprint)")},
			{"doc-006", "databases", 1997, 60, pad("fusion queries over internet databases")},
			{"doc-007", "ai", 1994, 180, pad("resolution-based query planning (tech report)")},
		},
	}
	out := map[string]*relation.Relation{}
	for lib, ds := range docs {
		rel := relation.NewRelation(schema)
		for _, d := range ds {
			rel.MustInsert(
				relation.String(d.id), relation.String(d.topic),
				relation.Int(d.year), relation.Int(d.cites), relation.String(d.abstract),
			)
		}
		out[lib] = rel
	}
	return out
}

func main() {
	schema := relation.MustSchema("DocID",
		relation.Column{Name: "DocID", Kind: relation.KindString},
		relation.Column{Name: "Topic", Kind: relation.KindString},
		relation.Column{Name: "Year", Kind: relation.KindInt},
		relation.Column{Name: "Cites", Kind: relation.KindInt},
		relation.Column{Name: "Abstract", Kind: relation.KindString},
	)

	network := netsim.NewNetwork(7)
	m := core.New(schema)
	m.SetNetwork(network)
	for name, rel := range libraries(schema) {
		src := source.NewWrapper(name, source.NewRowBackend(rel), source.Capabilities{NativeSemijoin: true, PassedBindings: true})
		if err := m.AddSourceLink(src, netsim.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}

	// Documents that are database papers somewhere AND well cited
	// somewhere (the records may live in different libraries).
	sql := `SELECT d1.DocID FROM Docs d1, Docs d2
	        WHERE d1.DocID = d2.DocID
	          AND d1.Topic = 'databases' AND d2.Cites >= 50`
	fmt.Printf("query:\n%s\n\n", sql)
	conds := []cond.Cond{
		cond.MustParse("Topic = 'databases'"),
		cond.MustParse("Cites >= 50"),
	}
	opts := core.Options{Algorithm: core.AlgoSJA}

	// The first planning asks every library for its statistics summary, once
	// per mediator and not per query: do it now and zero the network, so what
	// is counted below is the query's traffic.
	ctx := context.Background()
	if _, err := m.Problem(ctx, conds, opts); err != nil {
		log.Fatal(err)
	}
	network.Reset()

	// Phase one: items only. (SJA rather than SJA+ here: with such tiny
	// demo relations SJA+ would load the sources outright, which moves
	// whole records and would muddy the phase-one/phase-two comparison.)
	ans, err := m.Query(ctx, sql, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase one answer: %s\n", ans.Items)
	fmt.Printf("plan:\n%s\n", ans.Plan)
	phase1 := network.Stats()
	fmt.Printf("phase one traffic: %s\n", phase1)

	// Phase two: fetch the full (wide) records of the answers only.
	full, err := m.Fetch(ctx, ans.Items)
	if err != nil {
		log.Fatal(err)
	}
	both := network.Stats()
	fmt.Printf("phase two fetched %d full records; total traffic now %s\n\n", full.Len(), both)

	// Contrast: a one-phase strategy ships full matching records for every
	// condition from every library.
	network.Reset()
	for _, c := range conds {
		for _, src := range m.Sources() {
			items, err := src.Select(context.Background(), c)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := src.Fetch(context.Background(), items); err != nil {
				log.Fatal(err)
			}
		}
	}
	onePhase := network.Stats()
	fmt.Printf("one-phase traffic (full records per condition): %s\n", onePhase)
	fmt.Printf("two-phase moved %.1fx fewer bytes\n",
		float64(onePhase.TotalBytes)/float64(both.TotalBytes))
}

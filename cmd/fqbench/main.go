// Command fqbench prints the experiment suite that regenerates the paper's
// worked-example economics and validates its quantitative claims (E1–E15,
// EXPERIMENTS.md). Every table is simulated cost, so two runs print the same
// bytes: those of internal/bench/testdata/tables.golden. An experiment whose
// claim fails exits 1.
//
// Usage:
//
//	fqbench          # run all experiments
//	fqbench -e E3    # run one experiment
//	fqbench -list    # list experiments
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fusionq/internal/bench"
)

func main() {
	expID := flag.String("e", "", "run a single experiment by id (e.g. E3)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	run := bench.All()
	if *expID != "" {
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "fqbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		run = []bench.Experiment{e}
	}
	for _, e := range run {
		if *list {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
			continue
		}
		table, err := e.Run(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "fqbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(table.Render())
	}
}

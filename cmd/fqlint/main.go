// Command fqlint runs the fusionq static-analysis suite (internal/lint):
// custom analyzers that enforce the codebase's ctx-first, metric charge-site,
// error-wrapping, iterator-closing, goroutine-ownership and goroutine channel
// contracts.
//
// Usage:
//
//	fqlint ./...                 check packages (go-list patterns)
//	fqlint -list                 print the analyzers and their invariants
//	fqlint -only nakedgo ./...   run a subset (comma-separated names)
//
// Exit status: 0 clean, 1 findings, 2 operational failure. A finding can be
// suppressed — with justification — by a comment on the flagged line or the
// line above:
//
//	//fqlint:ignore nakedgo drain watcher exits when wg.Wait returns
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"fusionq/internal/lint"
	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/load"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fqlint: %v\n", err)
		os.Exit(2)
	}
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args, analyzers))
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := lint.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// standalone loads packages itself (go list + source-level type checking),
// runs every analyzer over each package on its own and prints the findings
// to stdout, sorted by position.
func standalone(patterns []string, analyzers []*analysis.Analyzer) int {
	pkgs, err := load.Packages(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fqlint: %v\n", err)
		return 2
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "fqlint: %s: %v\n", pkg.PkgPath, terr)
		}
		if len(pkg.TypeErrors) > 0 {
			return 2
		}
		diags = append(diags, runAnalyzers(pkg, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fqlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func runAnalyzers(pkg *load.Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "fqlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
			continue
		}
		out = append(out, pass.Diagnostics()...)
	}
	return out
}

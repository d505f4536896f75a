// Command fqlint runs the fusionq static-analysis suite (internal/lint):
// custom analyzers that enforce the codebase's context-propagation, metric-
// vocabulary, error-wrapping, span-pairing and goroutine-ownership
// contracts.
//
// Usage:
//
//	fqlint ./...                 check packages (go-list patterns)
//	fqlint -list                 print the analyzers and their invariants
//	fqlint -only nakedgo ./...   run a subset (comma-separated names)
//	fqlint -json ./...           print the findings as JSON
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
	jsonOut := flag.Bool("json", false, "print findings as JSON ({\"findings\":[{file,line,col,analyzer,message}]})")
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
	os.Exit(standalone(args, analyzers, *jsonOut))
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

// standalone loads packages itself (go list + source-level type checking)
// and reports findings to stdout. Packages run in dependency order so
// fact-exporting analyzers (lockorder, blockinglock) see the summaries of a
// package's dependencies before they reach the package.
func standalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	pkgs, err := load.Packages(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fqlint: %v\n", err)
		return 2
	}
	facts := newFactStore()
	var diags []analysis.Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "fqlint: %s: %v\n", pkg.PkgPath, terr)
		}
		if len(pkg.TypeErrors) > 0 {
			return 2
		}
		diags = append(diags, runAnalyzers(pkg, analyzers, facts)...)
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
	if jsonOut {
		out, err := renderJSON(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fqlint: %v\n", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fqlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// dependencyOrder topologically sorts the loaded packages by their import
// edges (edges outside the loaded set are ignored); the go toolchain
// guarantees acyclicity, but a defensive visited check keeps a corrupt
// listing from recursing forever.
func dependencyOrder(pkgs []*load.Package) []*load.Package {
	byPath := map[string]*load.Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	var out []*load.Package
	done := map[string]bool{}
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		if done[p.PkgPath] {
			return
		}
		done[p.PkgPath] = true
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// factStore carries analyzer facts across packages within one run: analyzer name → package path → exported blob.
type factStore map[string]map[string][]byte

func newFactStore() factStore { return factStore{} }

func (fs factStore) importedFor(a *analysis.Analyzer, imports []string) map[string][]byte {
	byPkg := fs[a.Name]
	if byPkg == nil {
		return nil
	}
	out := map[string][]byte{}
	for _, imp := range imports {
		if blob, ok := byPkg[imp]; ok {
			out[imp] = blob
		}
	}
	return out
}

func (fs factStore) record(a *analysis.Analyzer, pkgPath string, blob []byte) {
	if blob == nil {
		return
	}
	if fs[a.Name] == nil {
		fs[a.Name] = map[string][]byte{}
	}
	fs[a.Name][pkgPath] = blob
}

func runAnalyzers(pkg *load.Package, analyzers []*analysis.Analyzer, facts factStore) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:      a,
			Fset:          pkg.Fset,
			Files:         pkg.Files,
			Pkg:           pkg.Types,
			TypesInfo:     pkg.Info,
			ImportedFacts: facts.importedFor(a, pkg.Imports),
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "fqlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
			continue
		}
		facts.record(a, pkg.PkgPath, pass.ExportedFacts())
		out = append(out, pass.Diagnostics()...)
	}
	return out
}

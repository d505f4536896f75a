// Package metricnames enforces the canonical metric vocabulary of
// internal/obs/names.go: every charge site — a Counter, Gauge or Histogram
// call on a metrics Registry — names its family with a constant declared in
// names.go, never a string literal or computed value. One vocabulary, one
// file: a scrape of any process is self-consistent, and grep finds every
// charge site of a family from its constant. That names.go and DescribeAll
// agree is obs.TestNamesDescribeAllBijection's.
//
// Test files are exempt: tests mint throwaway families freely.
package metricnames

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces constant-only metric names.
var Analyzer = &analysis.Analyzer{
	Name: "metricnames",
	Doc:  "metric charge sites must use constants declared in names.go",
	Run:  run,
}

// chargeMethods are the Registry methods that open a metric family.
var chargeMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkChargeSite(pass, call)
			return true
		})
	}
	return nil
}

// checkChargeSite validates the name argument of Registry.Counter/Gauge/
// Histogram calls.
func checkChargeSite(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !chargeMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	if recv == nil || recv.Obj().Name() != "Registry" {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if c := constantOf(pass.TypesInfo, arg); c != nil {
		if declaredInNamesFile(pass.Fset, c) {
			return
		}
		pass.Reportf(arg.Pos(), "metric name constant %s is not declared in names.go; "+
			"add it to the canonical vocabulary", c.Name())
		return
	}
	if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		pass.Reportf(arg.Pos(), "string-literal metric name %s; use a constant from names.go", lit.Value)
		return
	}
	pass.Reportf(arg.Pos(), "computed metric name; use a constant from names.go")
}

// constantOf resolves expr to the constant object it references, or nil.
func constantOf(info *types.Info, expr ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// declaredInNamesFile reports whether c's declaration lives in a file named
// names.go (the driver type-checks from source, so every constant has a
// position).
func declaredInNamesFile(fset *token.FileSet, c *types.Const) bool {
	return filepath.Base(fset.Position(c.Pos()).Filename) == "names.go"
}

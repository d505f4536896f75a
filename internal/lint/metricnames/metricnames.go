// Package metricnames enforces the canonical metric vocabulary of
// internal/obs/names.go. Two invariants:
//
//  1. Every charge site — a Counter, Gauge or Histogram call on a metrics
//     Registry — names its family with a constant declared in names.go,
//     never a string literal or computed value. One vocabulary, one file:
//     a scrape of any process is self-consistent, and grep finds every
//     charge site of a family from its constant.
//
//  2. In a package that declares a names.go and a DescribeAll function,
//     DescribeAll covers the vocabulary: every names.go constant is
//     referenced by DescribeAll (so /metrics documents families this
//     process never charged), and DescribeAll introduces no fq_* string
//     literals of its own.
//
// Test files are exempt: tests mint throwaway families freely.
package metricnames

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces constant-only metric names and DescribeAll coverage.
var Analyzer = &analysis.Analyzer{
	Name: "metricnames",
	Doc: "metric charge sites must use constants declared in names.go, " +
		"and DescribeAll must cover every declared name",
	Run: run,
}

// chargeMethods are the Registry methods that open a metric family.
var chargeMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

var metricLiteral = regexp.MustCompile(`^fq_[a-z0-9_]+$`)

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
	checkDescribeAll(pass)
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

// checkDescribeAll runs the coverage half in packages that declare both a
// names.go file and a DescribeAll function (internal/obs in this codebase;
// the trigger is structural so fixtures can exercise it).
func checkDescribeAll(pass *analysis.Pass) {
	declared := namesFileConstants(pass)
	if len(declared) == 0 {
		return
	}
	var describe *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "DescribeAll" && fd.Recv == nil {
				describe = fd
			}
		}
	}
	if describe == nil {
		return
	}
	covered := map[types.Object]bool{}
	ast.Inspect(describe.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if c, ok := pass.TypesInfo.Uses[n].(*types.Const); ok {
				covered[c] = true
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && metricLiteral.MatchString(strings.Trim(n.Value, "`\"")) {
				pass.Reportf(n.Pos(), "string-literal metric name %s in DescribeAll; declare it in names.go", n.Value)
			}
		}
		return true
	})
	for _, c := range declared {
		if !covered[c] {
			pass.Reportf(c.Pos(), "metric constant %s is not covered by DescribeAll", c.Name())
		}
	}
}

// namesFileConstants returns the string constants this package declares in
// a file named names.go, in declaration order.
func namesFileConstants(pass *analysis.Pass) []*types.Const {
	var out []*types.Const
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) != "names.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range spec.Names {
				if c, ok := pass.TypesInfo.Defs[name].(*types.Const); ok {
					if basic, ok := c.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						out = append(out, c)
					}
				}
			}
			return true
		})
	}
	return out
}

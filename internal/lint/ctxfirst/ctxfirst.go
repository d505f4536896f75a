// Package ctxfirst enforces the codebase's ctx-first signatures (DESIGN.md
// §8): a function that takes a context.Context takes it as its first
// parameter, so a reader finds it where every other function keeps it.
package ctxfirst

import (
	"go/ast"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces ctx-first signatures.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context parameters must come first",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParamOrder(pass, n.Name.Name, n.Type)
			case *ast.FuncLit:
				checkParamOrder(pass, "func literal", n.Type)
			}
			return true
		})
	}
	return nil
}

// checkParamOrder reports a context.Context parameter in any position but
// the first.
func checkParamOrder(pass *analysis.Pass, name string, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if t != nil && analysis.IsContextType(t) && pos != 0 {
			pass.Reportf(field.Pos(), "%s: context.Context must be the first parameter", name)
			return
		}
		pos += n
	}
}

// Package ctxfirst enforces the codebase's context-propagation contract
// (DESIGN.md §8): a function that takes a context.Context takes it as its
// first parameter, and library code never mints a root context with
// context.Background or context.TODO — roots belong to process entry points
// (package main) and tests. Anything else is a drift bug that silently
// severs cancellation and deadline flow.
package ctxfirst

import (
	"go/ast"

	"fusionq/internal/lint/analysis"
)

// Analyzer enforces ctx-first signatures and library-root context hygiene.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc: "context.Context parameters must come first, and only package main and tests " +
		"may call context.Background/TODO",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
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
			case *ast.CallExpr:
				if isMain {
					return true
				}
				if name := rootContextName(pass, n); name != "" {
					pass.Reportf(n.Pos(), "context.%s() in library code severs cancellation; "+
						"accept a ctx parameter", name)
				}
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

// rootContextName returns "Background" or "TODO" when call is
// context.Background() or context.TODO(), else "".
func rootContextName(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

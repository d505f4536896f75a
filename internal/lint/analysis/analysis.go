// Package analysis is a minimal, dependency-free reimplementation of the
// core of golang.org/x/tools/go/analysis: an Analyzer is a named invariant
// checker that inspects one type-checked package (a Pass) and reports
// Diagnostics. The vendored original is not available offline, and the
// fqlint analyzers need only this surface: each looks at one package at a
// time, so there are no facts passed between packages. The API mirrors
// go/analysis so the analyzers port mechanically if the real framework is
// ever adopted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// fqlint:ignore suppression comments. Lower-case, no spaces.
	Name string
	// Doc states the invariant the analyzer enforces; the first line is
	// shown by fqlint -list.
	Doc string
	// Run inspects one package and reports findings via Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked form to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message stating the violated invariant.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, with fqlint:ignore
// suppressions already applied.
func (p *Pass) Diagnostics() []Diagnostic {
	sup := suppressions(p.Fset, p.Files)
	var out []Diagnostic
	for _, d := range p.diagnostics {
		if sup.covers(d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// IsTestFile reports whether f was parsed from a _test.go file. Most fqlint
// invariants are production-code contracts; tests may use background
// contexts, literal metric names and ad-hoc goroutines freely.
func (p *Pass) IsTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}

// IgnoreDirective is the comment prefix that suppresses a finding on its
// own line or the line below:
//
//	//fqlint:ignore nakedgo drain watcher exits when wg.Wait returns
const IgnoreDirective = "fqlint:ignore"

// suppressionSet maps file -> line -> analyzer names suppressed there.
type suppressionSet map[string]map[int][]string

func (s suppressionSet) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// suppressions scans every comment in files for ignore directives.
func suppressions(fset *token.FileSet, files []*ast.File) suppressionSet {
	out := suppressionSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, IgnoreDirective))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					out[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return out
}

// ErrorType is the predeclared error interface type.
var ErrorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// ImplementsError reports whether t satisfies the error interface.
func ImplementsError(t types.Type) bool {
	return types.Implements(t, ErrorType)
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// CalleeFunc resolves the function or method a call expression invokes,
// or nil for calls through function-typed values and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ReceiverNamed returns the named type of a method call's receiver, with
// any pointer indirection removed, or nil if call is not a method call.
func ReceiverNamed(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// Package load turns package patterns (./..., fusionq/internal/exec) into
// parsed, type-checked packages for the fqlint analyzers. It shells out to
// `go list -json` for package discovery and type-checks from source with the
// standard library's source importer, so it needs no compiled artifacts and
// no dependencies beyond the go toolchain itself.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded package: syntax plus type information.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checking problems. Analyzers still run on a
	// partially checked package, but the driver surfaces these first.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output load consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// Packages loads and type-checks the packages matching patterns, in the
// go-list sense, from the current working directory's module. Test files
// are not loaded: fqlint invariants are production-code contracts.
func Packages(patterns ...string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var out []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := Check(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", lp.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Check parses and type-checks one package from explicit file paths. Type
// errors are collected on the package rather than aborting, so analyzers
// can still run over a tree that is mid-edit.
func Check(fset *token.FileSet, imp types.Importer, pkgPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Files: files, Info: NewInfo()}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkgPath, fset, files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(stdout)
	var out []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		out = append(out, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	return out, nil
}

// Package linttest runs fqlint analyzers against fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest: each fixture is a
// directory of Go files under testdata/, and every line that should be
// flagged carries a trailing
//
//	// want `regexp`
//
// comment: one Go-quoted regexp, which one finding on that line must match.
// The harness fails the test for any unmatched expectation and any
// unexpected diagnostic, so fixtures pin both the flagged and the clean
// cases of an invariant.
package linttest

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/load"
)

// expectation is one want-comment: a diagnostic matching re must occur at
// file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run checks analyzer a against the fixture package in dir (typically
// "testdata/<name>"). Fixture files may import standard library and fusionq
// packages; they are type-checked from source.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: reading fixture dir: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}
	fset := token.NewFileSet()
	pkg, err := load.Check(fset, importer.ForCompiler(fset, "source", nil), "fixture/"+filepath.Base(dir), filenames)
	if err != nil {
		t.Fatalf("linttest: parsing fixture: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("linttest: fixture does not type-check: %v", terr)
	}

	pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
	if err := a.Run(pass); err != nil {
		t.Fatalf("linttest: analyzer %s: %v", a.Name, err)
	}
	diags := pass.Diagnostics()
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})

	wants := expectations(t, fset, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmet expectation matching d, returning false when
// none does.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.met = true
			return true
		}
	}
	return false
}

var wantRe = regexp.MustCompile(`// want (.*)`)

// expectations extracts every want-comment in the fixture.
func expectations(t *testing.T, fset *token.FileSet, pkg *load.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				pat, err := strconv.Unquote(strings.TrimSpace(m[1]))
				if err != nil {
					t.Fatalf("%s: want payload must be one quoted string, got %q", pos, m[1])
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// Package analysistest runs an analyzer over want-comment fixtures, in the
// spirit of golang.org/x/tools/go/analysis/analysistest but built on the
// standard library only.
//
// Fixtures live under <testdata>/src/<pkgpath>/*.go. A line that should be
// flagged carries a trailing comment of the form
//
//	// want "regexp"            one expected diagnostic
//	// want "re1" "re2"         two expected diagnostics on the same line
//
// Each regexp must match the reported message. The runner fails the test on
// any unmatched expectation and on any unexpected diagnostic. Fixture
// packages are type-checked against the real standard library (via the
// compiler's source importer), so os.Rename, sync.Mutex, time.Now, and
// friends resolve to their true objects.
//
//ensemfdet:testonly only the analyzer suite's tests import this package
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ensemfdet/internal/analyze"
)

// One process-wide fileset + source importer: importing "os" from source is
// not free, and every fixture shares the same stdlib.
var (
	fsetOnce sync.Once
	fset     *token.FileSet
	imp      types.Importer
)

func sharedImporter() (*token.FileSet, types.Importer) {
	fsetOnce.Do(func() {
		fset = token.NewFileSet()
		imp = importer.ForCompiler(fset, "source", nil)
	})
	return fset, imp
}

// Run applies a to the fixture package at <testdata>/src/<pkgPath> and
// checks its diagnostics against the fixture's want comments.
func Run(t *testing.T, testdata string, pkgPath string, a *analyze.Analyzer) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	fset, imp := sharedImporter()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	_, err = conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}

	var got []analyze.Diagnostic
	pass := &analyze.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Path:      pkgPath,
		TypesInfo: info,
		Report:    func(d analyze.Diagnostic) { got = append(got, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, fset, files, got)
}

type key struct {
	file string
	line int
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// check matches diagnostics against want comments.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, got []analyze.Diagnostic) {
	t.Helper()
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range splitQuoted(t, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		wants[k][matched] = nil
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// splitQuoted extracts the Go-quoted strings from a want comment's tail.
func splitQuoted(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("malformed want comment tail %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("unterminated quote in want comment %q", s)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("unquoting %q: %v", s[:end+1], err)
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		t.Fatalf("want comment with no expectations")
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPkg is the subset of `go list -json` output the standalone driver
// needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Export     string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// runStandalone resolves package patterns with `go list -e -export -json
// -deps`, analyzes every matched package, and exits 1 on any diagnostic or
// load failure (fail-closed). Unlike the vet path it sees only non-test
// files; CI uses `go vet -vettool` for the authoritative run.
func runStandalone(args []string) int {
	fs := flag.NewFlagSet("ensemfdetlint", flag.ContinueOnError)
	github := fs.Bool("github", false, "emit GitHub Actions ::error workflow commands")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ensemfdetlint [-github] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := listPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
		return 1
	}

	// Export data from every listed package (deps included) feeds the
	// importer for the packages under analysis.
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	failures := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "ensemfdetlint: %s: %s\n", p.ImportPath, p.Error.Err)
			failures++
			continue
		}
		if len(p.CgoFiles) > 0 {
			// cgo files need generated sources the driver does not have;
			// the repo has none, but fail closed rather than skip quietly.
			fmt.Fprintf(os.Stderr, "ensemfdetlint: %s: cgo packages are not supported standalone; use go vet -vettool\n", p.ImportPath)
			failures++
			continue
		}
		failures += analyzePkg(fset, p, exports, *github)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// listPackages shells out to the go tool for package resolution and export
// data, which works offline from the local build cache.
func listPackages(patterns []string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// analyzePkg type-checks one package against its dependencies' export data
// and runs the suite. Returns the number of findings plus load errors.
func analyzePkg(fset *token.FileSet, p *listPkg, exports map[string]string, github bool) int {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
			return 1
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canonical, ok := p.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var typeErrs []error
	tcfg := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newTypesInfo()
	tcfg.Check(p.ImportPath, fset, files, info) // errors arrive through tcfg.Error
	if len(typeErrs) > 0 {
		for _, err := range typeErrs {
			fmt.Fprintln(os.Stderr, err)
		}
		return len(typeErrs)
	}
	return runAnalyzers(p.ImportPath, fset, files, info, github)
}

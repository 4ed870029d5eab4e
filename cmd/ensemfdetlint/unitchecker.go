package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"ensemfdet/internal/analyze"
)

// vetConfig is the subset of the JSON cmd/go writes for each package when
// driving a -vettool that ensemfdetlint reads. Field names must match
// cmd/go's encoding exactly.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string // source import path -> canonical path
	PackageFile               map[string]string // canonical path -> export data file
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// runUnitchecker analyzes the single package described by the vet.cfg file
// at cfgPath. Exit codes: 0 clean, 1 error, 2 diagnostics.
func runUnitchecker(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ensemfdetlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite exports no facts, but cmd/go requires the vetx output to
	// exist before it will cache the action — write it unconditionally.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var typeErrs []error
	tcfg := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, build.Default.GOARCH),
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newTypesInfo()
	tcfg.Check(cfg.ImportPath, fset, files, info) // errors arrive through tcfg.Error
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, err := range typeErrs {
			fmt.Fprintln(os.Stderr, err)
		}
		return 1
	}

	n := runAnalyzers(cfg.ImportPath, fset, files, info, false)
	if n > 0 {
		return 2
	}
	return 0
}

// newTypesInfo allocates the full types.Info the analyzers rely on.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// runAnalyzers applies the whole suite to one loaded package and returns
// the number of diagnostics reported.
func runAnalyzers(path string, fset *token.FileSet, files []*ast.File, info *types.Info, github bool) int {
	n := 0
	for _, a := range analyze.All() {
		pass := &analyze.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Path:      path,
			TypesInfo: info,
			Report: func(d analyze.Diagnostic) {
				n++
				report(d, fset, github)
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "ensemfdetlint: %s: %v\n", a.Name, err)
			n++
		}
	}
	return n
}

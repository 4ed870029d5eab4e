// Command ensemfdetlint runs the repo's custom analyzer suite
// (internal/analyze: determinism, lockdiscipline, durability, senterr,
// atomic64).
//
// It speaks two protocols:
//
//   - As a vettool. `go vet -vettool=$(pwd)/bin/ensemfdetlint ./...` drives
//     it through cmd/go's unitchecker protocol: cmd/go invokes the tool once
//     with -V=full (cache fingerprint), once with -flags (supported flags),
//     and then once per package with the path to a vet.cfg JSON file
//     describing the package and the export data of its dependencies. This
//     path type-checks test files too and is the authoritative gate in CI.
//
//   - Standalone. `ensemfdetlint [-github] ./...` shells out to
//     `go list -e -export -json -deps` and analyzes every matched
//     (non-dependency) package. -github switches diagnostics to GitHub
//     Actions `::error` workflow commands so findings annotate the PR diff.
//
// Exit codes follow the unitchecker convention: 0 clean, 1 driver error,
// 2 diagnostics reported (standalone mode folds both failure cases into 1,
// fail-closed).
package main

import (
	"crypto/sha256"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ensemfdet/internal/analyze"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion()
		case args[0] == "-flags":
			// No tool-specific flags: cmd/go learns it can pass none.
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnitchecker(args[0])
		}
	}
	return runStandalone(args)
}

// printVersion emits the cache fingerprint line cmd/go demands from a
// vettool: name, a version, and a build ID derived from the executable
// bytes so rebuilding the tool invalidates vet's action cache.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetlint:", err)
		return 1
	}
	fmt.Printf("ensemfdetlint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
	return 0
}

// report prints one diagnostic. In github mode it uses a workflow command
// (stdout, which the runner scans); otherwise the conventional
// file:line:col form on stderr, which cmd/go relays verbatim.
func report(d analyze.Diagnostic, fset *token.FileSet, github bool) {
	pos := fset.Position(d.Pos)
	file := relPath(pos.Filename)
	if github {
		// Workflow-command fields must not contain newlines; messages don't.
		fmt.Printf("::error file=%s,line=%d,col=%d,title=%s::%s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
		return
	}
	fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
}

// relPath shortens filenames to be relative to the working directory when
// possible — clickable locally, and required for GitHub annotations to
// attach to files in the checkout.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}

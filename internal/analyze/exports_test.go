package analyze

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestExportsHaveProductionCallers enforces the standing rule that
// production code exists for production. It type-checks the whole module
// at once, which no vettool can do (cmd/go hands a vettool one package at a
// time), and fails on two kinds of finding in internal/:
//
//   - an exported func, method, var, const or type that no non-test file
//     references, or an exported field that no non-test file reads;
//   - an exported struct field that no file sets, tests included: a knob
//     whose zero value is the only value it has ever had is a constant.
//
// Exempt by rule: the methods and fields of the types the module's root
// package re-exports by alias (the library API), methods that satisfy an
// interface, struct-tagged fields, embedded fields, and any symbol whose
// doc (or whose package's doc) carries //ensemfdet:testonly <why>.
func TestExportsHaveProductionCallers(t *testing.T) {
	findings, err := unreachedExports(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestUnreachedExportsFixture pins each finding kind and each exemption on
// a fixture module.
func TestUnreachedExportsFixture(t *testing.T) {
	got, err := unreachedExports(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:10: a.Unused: exported func has no non-test reference",
		"internal/a/a.go:18: a.Knob: exported var has no non-test reference",
		"internal/a/a.go:27: a.Config.WriteOnly: exported field is never read outside tests",
		"internal/a/a.go:29: a.Config.Never: exported field is never set, tests included; make it a constant",
		"internal/a/a.go:39: a.Config.Dead: exported method has no non-test reference",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

const testonlyDirective = "testonly"

// The standard library is type-checked from source once per process.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
)

func stdImporter() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		// Without cgo the source importer never runs the cgo tool.
		build.Default.CgoEnabled = false
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImp
}

// modPkg is one package directory of the module, parsed.
type modPkg struct {
	path                 string
	files, tests, xtests []*ast.File
	imports              []string // module packages the non-test files import
}

// module type-checks a module's packages: every non-test package once, and
// each package's tests against variants where they must see test files.
type module struct {
	path    string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*modPkg
	order   []string // sorted package paths
	reaches map[[2]string]bool
	base    *view
	errs    []error
}

// A view resolves module imports. The base view holds the non-test
// packages; a test view substitutes one package's test variant and
// re-checks only the packages that import it.
type view struct {
	m       *module
	over    string
	overPkg *types.Package
	parent  *view
	pkgs    map[string]*types.Package
	infos   map[string]*types.Info
}

func (v *view) Import(path string) (*types.Package, error) {
	if v.overPkg != nil && path == v.over {
		return v.overPkg, nil
	}
	mp, ok := v.m.pkgs[path]
	if !ok {
		return v.m.std.Import(path)
	}
	if v.parent != nil && !v.m.imports(path, v.over) {
		return v.parent.Import(path)
	}
	if p, ok := v.pkgs[path]; ok {
		return p, nil
	}
	p, info := v.m.check(path, mp.files, v)
	v.pkgs[path], v.infos[path] = p, info
	return p, nil
}

func (m *module) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { m.errs = append(m.errs, err) },
	}
	p, _ := conf.Check(path, m.fset, files, info)
	return p, info
}

// imports reports whether module package from imports target, directly or
// not, through non-test files.
func (m *module) imports(from, target string) bool {
	if from == target {
		return true
	}
	k := [2]string{from, target}
	if r, ok := m.reaches[k]; ok {
		return r
	}
	m.reaches[k] = false
	r := slices.ContainsFunc(m.pkgs[from].imports, func(p string) bool { return m.imports(p, target) })
	m.reaches[k] = r
	return r
}

// loadModule parses every package under root, skipping testdata and
// hidden directories.
func loadModule(root string) (*module, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := stdImporter()
	m := &module{path: modPath, fset: fset, std: std,
		pkgs: make(map[string]*modPkg), reaches: make(map[[2]string]bool)}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &modPkg{path: modPath}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		parse := func(names []string) ([]*ast.File, error) {
			var fs []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				fs = append(fs, f)
			}
			return fs, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtests, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		for _, imp := range bp.Imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				p.imports = append(p.imports, imp)
			}
		}
		m.pkgs[p.path] = p
		m.order = append(m.order, p.path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(m.order)
	m.base = &view{m: m, pkgs: make(map[string]*types.Package), infos: make(map[string]*types.Info)}
	for _, path := range m.order {
		if _, err := m.base.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func readModulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// unreachedExports returns the findings for the module at root, one line
// each, sorted by position.
func unreachedExports(root string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	used := make(map[token.Pos]bool) // declarations a non-test file references
	set := make(map[token.Pos]bool)  // fields some file sets
	for _, path := range m.order {
		info := m.base.infos[path]
		recv := receiverIdents(m.pkgs[path].files)
		written := markSets(m.pkgs[path].files, info, set)
		for id, obj := range info.Uses {
			if !recv[id] && !written[id] {
				used[origin(obj).Pos()] = true
			}
		}
	}
	for _, path := range m.order {
		mp := m.pkgs[path]
		testPkg := m.base.pkgs[path]
		if len(mp.tests) > 0 {
			var info *types.Info
			testPkg, info = m.check(path, append(slices.Clip(mp.files), mp.tests...), m.base)
			markSets(mp.tests, info, set)
		}
		if len(mp.xtests) > 0 {
			v := &view{m: m, over: path, overPkg: testPkg, parent: m.base,
				pkgs: make(map[string]*types.Package), infos: make(map[string]*types.Info)}
			_, info := m.check(path+"_test", mp.xtests, v)
			markSets(mp.xtests, info, set)
		}
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", root, m.errs[0])
	}

	api := m.aliasedTypes()
	ifaces := m.interfaces()
	var findings []finding
	for _, path := range m.order {
		if !strings.HasPrefix(path, m.path+"/internal/") {
			continue
		}
		mp, info := m.pkgs[path], m.base.infos[path]
		exempt := exemptNames(mp.files)
		owner := fieldOwners(m.base.pkgs[path])
		for id, obj := range info.Defs {
			if obj == nil || !obj.Exported() || exempt[id.Pos()] {
				continue
			}
			var kind string
			var typ *types.TypeName // the method's or field's type
			switch obj := obj.(type) {
			case *types.Func:
				kind = "func"
				if r := obj.Signature().Recv(); r != nil {
					kind = "method"
					named := recvNamed(r.Type())
					if named == nil || api[named.Obj()] || implementsAny(named, obj.Name(), ifaces) {
						continue
					}
					typ = named.Obj()
				}
			case *types.Var:
				kind, typ = "var", owner[obj]
				if obj.IsField() {
					kind = "field"
					if obj.Embedded() || api[typ] {
						continue
					}
				}
			case *types.Const:
				kind = "const"
			case *types.TypeName:
				kind = "type"
			default:
				continue
			}
			if typ == nil && obj.Parent() != obj.Pkg().Scope() {
				continue // local declarations are not exports
			}
			var msg string
			switch {
			case !used[obj.Pos()] && kind == "field":
				msg = "exported field is never read outside tests"
			case !used[obj.Pos()]:
				msg = "exported " + kind + " has no non-test reference"
			case kind == "field" && !set[obj.Pos()]:
				msg = "exported field is never set, tests included; make it a constant"
			default:
				continue
			}
			name := obj.Pkg().Name() + "."
			if typ != nil {
				name += typ.Name() + "."
			}
			findings = append(findings, finding{m.fset.Position(obj.Pos()), name + obj.Name() + ": " + msg})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int {
		if c := strings.Compare(a.pos.Filename, b.pos.Filename); c != 0 {
			return c
		}
		return a.pos.Line - b.pos.Line
	})
	out := make([]string, len(findings))
	for i, f := range findings {
		rel, _ := filepath.Rel(root, f.pos.Filename)
		out[i] = fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), f.pos.Line, f.msg)
	}
	return out, nil
}

type finding struct {
	pos token.Position
	msg string
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// receiverIdents collects the identifiers inside method receivers: naming a
// type there does not reference it.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	ids := make(map[*ast.Ident]bool)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						ids[id] = true
					}
					return true
				})
			}
		}
	}
	return ids
}

// markSets records every field the files set: a composite-literal key or
// position, an assignment or ++/-- target, an address taken, or the
// receiver of a pointer-method call. A write through a field (x.F.G = v,
// x.F[i] = v) counts for F too. It returns the identifiers that only write
// their field (a key, an assignment target): they do not read it.
func markSets(files []*ast.File, info *types.Info, set map[token.Pos]bool) map[*ast.Ident]bool {
	written := make(map[*ast.Ident]bool)
	var lhs func(e ast.Expr, target bool)
	lhs = func(e ast.Expr, target bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				set[origin(s.Obj()).Pos()] = true
				written[e.Sel] = target
				lhs(e.X, false)
			}
		case *ast.IndexExpr:
			lhs(e.X, target)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					if p, isPtr := info.TypeOf(n).Underlying().(*types.Pointer); isPtr {
						st, ok = p.Elem().Underlying().(*types.Struct)
					}
				}
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
						if id, isID := kv.Key.(*ast.Ident); isID && info.Uses[id] != nil {
							set[origin(info.Uses[id]).Pos()] = true
							written[id] = true
						}
					} else if i < st.NumFields() {
						set[origin(st.Field(i)).Pos()] = true
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e, true)
				}
			case *ast.IncDecStmt:
				lhs(n.X, true)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					lhs(n.Key, true)
					lhs(n.Value, true)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lhs(n.X, false)
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
					if _, ptrX := info.TypeOf(n.X).(*types.Pointer); ptrRecv && !ptrX {
						lhs(n.X, false)
					}
				}
			}
			return true
		})
	}
	return written
}

// exemptNames returns the positions of the declaration names exempt by
// annotation or shape: a justified //ensemfdet:testonly directive in the
// declaration's doc (one in the package doc covers the whole package), and
// struct-tagged fields, which an encoder reads and sets by reflection.
func exemptNames(files []*ast.File) map[token.Pos]bool {
	exempt := make(map[token.Pos]bool)
	carries := func(cgs ...*ast.CommentGroup) bool {
		for _, cg := range cgs {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if d, ok := parseDirective(c.Text); ok && d.name == testonlyDirective && d.justification != "" {
					return true
				}
			}
		}
		return false
	}
	whole := slices.ContainsFunc(files, func(f *ast.File) bool { return carries(f.Doc) })
	mark := func(ids []*ast.Ident, cgs ...*ast.CommentGroup) {
		if whole || carries(cgs...) {
			for _, id := range ids {
				exempt[id.Pos()] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				mark([]*ast.Ident{n.Name}, n.Doc)
			case *ast.GenDecl:
				for _, s := range n.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						mark([]*ast.Ident{s.Name}, n.Doc, s.Doc, s.Comment)
					case *ast.ValueSpec:
						mark(s.Names, n.Doc, s.Doc, s.Comment)
					}
				}
			case *ast.Field:
				mark(n.Names, n.Doc, n.Comment)
				if n.Tag != nil {
					for _, id := range n.Names {
						exempt[id.Pos()] = true
					}
				}
			}
			return true
		})
	}
	return exempt
}

// fieldOwners maps each field of pkg's package-level struct types to its
// type.
func fieldOwners(pkg *types.Package) map[*types.Var]*types.TypeName {
	owners := make(map[*types.Var]*types.TypeName)
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				owners[st.Field(i)] = tn
			}
		}
	}
	return owners
}

// aliasedTypes returns the named types the module's root package
// re-exports by alias: their methods and fields are the library API.
func (m *module) aliasedTypes() map[*types.TypeName]bool {
	api := make(map[*types.TypeName]bool)
	root := m.base.pkgs[m.path]
	if root == nil {
		return api
	}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n := recvNamed(types.Unalias(tn.Type())); n != nil {
				api[n.Origin().Obj()] = true
			}
		}
	}
	return api
}

// interfaces indexes by method name every interface the module can name:
// the named interfaces of every package it reaches, the universe's error,
// and the interface literals it writes.
func (m *module) interfaces() map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, isNamed := tn.Type().(*types.Named); !isNamed || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, path := range m.order {
		walk(m.base.pkgs[path])
		for _, tv := range m.base.infos[path].Types {
			if _, lit := tv.Type.(*types.Interface); lit {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implementsAny reports whether named, or a pointer to it, implements an
// interface that has a method called method.
func implementsAny(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

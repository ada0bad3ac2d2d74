package sramaging

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported objects of internal/ that no
// non-test file uses but that stay anyway, one per line with its reason.
const surfaceAllowlist = "testdata/surface_allowlist.txt"

// TestExportedSurface fails on dead exported surface: every exported
// func, method, type, const and var of an internal/ package must be used
// by a non-test file of the module (root, cmd/, examples/, internal/) or
// of the benchmark in bench/, or be named in surfaceAllowlist with a
// reason. It also fails on allowlist entries that are stale: the object
// is used again, or gone.
//
// A use inside the object's own declaration does not count, and for a
// type neither do the receivers and bodies of its own methods, so a type
// reached only through its own methods is dead. A method also counts as
// used when a method of the same name is used on an interface that its
// type implements.
func TestExportedSurface(t *testing.T) {
	dead, err := deadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readSurfaceAllowlist(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(dead))
	for name := range dead {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s (%s): exported but no non-test file uses it; delete it, move it into a _test.go file, or allowlist it in %s with a reason", name, dead[name], surfaceAllowlist)
		}
	}
	for name := range allowed {
		if _, ok := dead[name]; !ok {
			t.Errorf("%s: stale entry in %s: the object is used or gone", name, surfaceAllowlist)
		}
	}
}

// readSurfaceAllowlist parses lines of "<object> <reason>"; blank lines
// and lines starting with # are skipped.
func readSurfaceAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %q states no reason", path, line, name)
		}
		if _, dup := entries[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %q", path, line, name)
		}
		entries[name] = reason
	}
	return entries, sc.Err()
}

// deadSurface type-checks every non-test package of the module rooted at
// root, plus bench/*.go as a caller, and returns the unused exported
// objects of internal/ packages with their positions, named relative to
// internal/ (for example "stats.Phi" or "sram.Array.Cells").
func deadSurface(root string) (map[string]token.Position, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &moduleLoader{
		fset:   token.NewFileSet(),
		module: module,
		root:   root,
		pkgs:   make(map[string]*types.Package),
		owned:  make(map[types.Object][][2]token.Pos),
		uses:   make(map[types.Object][]token.Pos),
		ifaces: make(map[*types.Func]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.load(importPath, path); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// bench/ is a module of its own that calls into this one: check it
	// as a caller only, through the same importer.
	if _, err := l.load(module+"/bench", filepath.Join(root, "bench")); err != nil {
		return nil, err
	}
	return l.dead(), nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// moduleLoader type-checks the module's packages from source, importing
// the standard library through the "source" importer, and records every
// use of an object from any package it checks.
type moduleLoader struct {
	fset   *token.FileSet
	module string
	root   string
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	owned  map[types.Object][][2]token.Pos // ranges whose uses do not count
	uses   map[types.Object][]token.Pos
	ifaces map[*types.Func]bool // used methods of interface types
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
	}
	if path == l.module {
		return l.load(path, l.root)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of the package in dir once.
func (l *moduleLoader) load(importPath, dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	if l.isInternal(pkg) {
		l.own(files, info)
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		l.uses[obj] = append(l.uses[obj], id.Pos())
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			l.ifaces[fn] = true
		}
	}
	return pkg, nil
}

func (l *moduleLoader) isInternal(pkg *types.Package) bool {
	return strings.HasPrefix(pkg.Path(), l.module+"/internal/")
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// own records, for each object declared in files, the source ranges
// whose uses of it do not count: its own declaration and, for a type,
// its methods (receiver and body).
func (l *moduleLoader) own(files []*ast.File, info *types.Info) {
	add := func(obj types.Object, n ast.Node) {
		if obj != nil {
			l.owned[obj] = append(l.owned[obj], [2]token.Pos{n.Pos(), n.End()})
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(info.Defs[d.Name], d)
				if d.Recv != nil {
					add(info.Uses[receiverName(d.Recv.List[0].Type)], d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(info.Defs[n], s)
						}
					}
				}
			}
		}
	}
}

// receiverName returns the type name of a receiver T or *T; nil for a
// generic receiver, whose methods then count as uses of their type.
func receiverName(expr ast.Expr) *ast.Ident {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	id, _ := expr.(*ast.Ident)
	return id
}

// dead lists the exported objects of internal/ packages with no use
// outside the ranges they own.
func (l *moduleLoader) dead() map[string]token.Position {
	used := func(obj types.Object) bool {
	uses:
		for _, pos := range l.uses[obj] {
			for _, r := range l.owned[obj] {
				if r[0] <= pos && pos < r[1] {
					continue uses
				}
			}
			return true
		}
		return false
	}
	dead := make(map[string]token.Position)
	for path, pkg := range l.pkgs {
		if !l.isInternal(pkg) {
			continue
		}
		prefix := strings.TrimPrefix(path, l.module+"/internal/") + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used(obj) {
				dead[prefix+name] = l.fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used(m) && !l.viaInterface(named, m) {
					dead[prefix+name+"."+m.Name()] = l.fset.Position(m.Pos())
				}
			}
		}
	}
	return dead
}

// viaInterface reports whether a method named like m is used on an
// interface that *named implements (its method set includes named's).
func (l *moduleLoader) viaInterface(named *types.Named, m *types.Func) bool {
	for fn := range l.ifaces {
		if fn.Name() != m.Name() {
			continue
		}
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

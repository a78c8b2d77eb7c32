package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package directory, ready for
// LintAll.
type Package struct {
	// Dir is the package directory.
	Dir string
	// Fset positions the syntax.
	Fset *token.FileSet
	// Files are the non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's fact tables.
	Info *types.Info
	// TypeErrors holds the type-checking errors of a lenient load. When
	// non-empty, Info is partial: analyzers still run but see fewer
	// facts, so they report less, never more.
	TypeErrors []error
}

// Loader parses and type-checks package directories using only the
// standard library. Imports — including green's own internal packages —
// are resolved by the source importer, which compiles dependencies from
// source, so no pre-built export data or external modules are required.
// A single Loader shares its importer cache across Load calls; loading
// many packages of one module amortizes the stdlib type-checking cost.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader with a fresh importer cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load parses the non-test Go files of one directory and type-checks
// them. The directory may be anywhere inside the module, including under
// testdata trees the go tool itself refuses to build. Type errors are
// fatal.
func (l *Loader) Load(dir string) (*Package, error) {
	pkg, err := l.load(dir, false)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

func (l *Loader) load(dir string, lenient bool) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") ||
			strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg := &Package{Dir: abs, Fset: l.fset, Files: files}
	pkg.Types, pkg.Info, pkg.TypeErrors, err = l.check(importPathFor(abs), files, lenient)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	return pkg, nil
}

// check type-checks files. In lenient mode every type error is collected
// instead of aborting, and the (possibly partial) results are returned.
func (l *Loader) check(path string, files []*ast.File, lenient bool) (*types.Package, *types.Info, []error, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{Importer: l.imp}
	if lenient {
		conf.Error = func(err error) { typeErrs = append(typeErrs, err) }
		// The source importer can fail hard on unresolvable imports even
		// with an Error hook; FakeImportC plus the hook covers the rest.
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && !lenient {
		return nil, nil, nil, err
	}
	if err != nil && len(typeErrs) == 0 {
		typeErrs = append(typeErrs, err)
	}
	if pkg == nil {
		pkg = types.NewPackage(path, "main")
	}
	return pkg, info, typeErrs, nil
}

// importPathFor derives a module-relative import path for dir by walking
// up to the nearest go.mod. The path only labels the package for
// diagnostics and need not be buildable by the go tool (testdata
// fixtures, for example, are not).
func importPathFor(dir string) string {
	for root := dir; ; {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			mod := moduleName(filepath.Join(root, "go.mod"))
			rel, err := filepath.Rel(root, dir)
			if err != nil || rel == "." {
				return mod
			}
			return mod + "/" + filepath.ToSlash(rel)
		}
		parent := filepath.Dir(root)
		if parent == root {
			return filepath.ToSlash(dir)
		}
		root = parent
	}
}

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "main"
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "main"
}

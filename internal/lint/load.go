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
	pkg, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l.imp}
	if pkg.Types, err = conf.Check(importPathFor(pkg.Dir), l.fset, pkg.Files, pkg.Info); err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	return pkg, nil
}

// parseDir parses the non-test Go files of dir into a Package with empty
// fact tables, ready for the type-checker.
func (l *Loader) parseDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: abs, Fset: l.fset, Info: newInfo()}
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
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg, nil
}

// newInfo returns the empty fact tables the analyzers read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

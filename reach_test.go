package green_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the declarations under internal/ and cmd/ that
// may stay although only their own package's tests reach them, each with
// its reason. TestNoDeclarationOnlyTestsReach fails when an entry becomes
// reached or disappears, so the list can only shrink.
var unreachedAllowed = map[string]string{
	"internal/core.(*Loop).SelectorStats": "the Select stage is kept or deleted whole (ROADMAP item 4), its counters with it",
}

// interfaceMethods are the standard library interfaces whose methods a
// type may implement for a caller that never names them.
var interfaceMethods = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "ServeHTTP"}

// TestNoDeclarationOnlyTestsReach type-checks every package of the
// module and of bench/, tests included, and fails for each package-level
// func, method, type and var declared in a non-test file under internal/
// or cmd/ that nothing but its own package's tests references. A
// reference from a non-test file (bench/ and the examples included), or
// from a test file in another directory, reaches a declaration. Exempt
// are constants, main, methods named like a method of an interface
// declared in non-test code or of interfaceMethods, and unreachedAllowed.
func TestNoDeclarationOnlyTestsReach(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	parse := func(dir string, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }

	// decls holds the covered declarations by declaring position; method
	// is a method's name, "" for a func, type or var.
	type decl struct{ name, method string }
	decls := map[string]decl{}
	reached := map[string]bool{}
	exempt := map[string]bool{}
	for _, name := range interfaceMethods {
		exempt[name] = true
	}
	key := func(obj types.Object) string { return fset.Position(obj.Pos()).String() }

	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		path := "green/" + filepath.ToSlash(rel)
		if rel == "." {
			path = "green"
		}
		covered := strings.HasPrefix(rel, "internal"+string(filepath.Separator)) || strings.HasPrefix(rel, "cmd"+string(filepath.Separator))
		checks := [][]*ast.File{append(parse(dir, bp.GoFiles), parse(dir, bp.TestGoFiles)...)}
		if len(bp.XTestGoFiles) > 0 {
			checks = append(checks, parse(dir, bp.XTestGoFiles))
		}
		for i, files := range checks {
			if len(files) == 0 {
				continue
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
			pkgPath := path
			if i == 1 {
				pkgPath += "_test"
			}
			pkg, err := conf.Check(pkgPath, fset, files, info)
			if err != nil {
				t.Fatalf("%s: %v", pkgPath, err)
			}
			for id, obj := range info.Uses {
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				if !isTest(id.Pos()) || filepath.Dir(fset.Position(id.Pos()).Filename) != filepath.Dir(fset.Position(obj.Pos()).Filename) {
					reached[key(obj)] = true
				}
			}
			for expr, tv := range info.Types {
				if it, ok := tv.Type.(*types.Interface); ok && !isTest(expr.Pos()) {
					if _, lit := expr.(*ast.InterfaceType); lit {
						for m := range it.NumMethods() {
							exempt[it.Method(m).Name()] = true
						}
					}
				}
			}
			if i == 1 || !covered {
				continue
			}
			for _, name := range pkg.Scope().Names() {
				obj := pkg.Scope().Lookup(name)
				if isTest(obj.Pos()) || name == "main" {
					continue
				}
				switch obj.(type) {
				case *types.Func, *types.Var:
					decls[key(obj)] = decl{name: rel + "." + name}
				case *types.TypeName:
					decls[key(obj)] = decl{name: rel + "." + name}
					named, ok := obj.Type().(*types.Named)
					if !ok {
						continue
					}
					for m := range named.NumMethods() {
						fn := named.Method(m)
						if isTest(fn.Pos()) {
							continue
						}
						recv := name
						if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							recv = "*" + name
						}
						decls[key(fn)] = decl{name: rel + ".(" + recv + ")." + fn.Name(), method: fn.Name()}
					}
				}
			}
		}
	}

	var unreached []string
	allowed := map[string]bool{}
	for k, d := range decls {
		if _, ok := unreachedAllowed[d.name]; ok {
			allowed[d.name] = true
			if reached[k] {
				t.Errorf("%s is reached now: drop it from unreachedAllowed", d.name)
			}
			continue
		}
		if reached[k] || exempt[d.method] {
			continue
		}
		unreached = append(unreached, d.name)
	}
	for name := range unreachedAllowed {
		if !allowed[name] {
			t.Errorf("unreachedAllowed names %s, which is gone: drop the entry", name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("%s: only its own package's tests reach it", name)
	}
}

package lint

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"strings"
	"testing"
)

// LoadLenient is Load, except that type-checking errors do not abort the
// load: the errors are collected in Package.TypeErrors and the analyzers
// run over whatever partial type information survives. Parse errors are
// still fatal — without syntax there is nothing to analyze.
func (l *Loader) LoadLenient(dir string) (*Package, error) {
	return l.load(dir, true)
}

// LoadSource parses and leniently type-checks a single in-memory file,
// the entry point the fuzzer and the CFG tests use. Imports that cannot
// be resolved become type errors, not failures, so analyzers always get
// to run; only unparseable source returns an error.
func (l *Loader) LoadSource(filename string, src []byte) (*Package, error) {
	f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: ".", Fset: l.fset, Files: []*ast.File{f}}
	pkg.Types, pkg.Info, pkg.TypeErrors, err = l.check(filename, pkg.Files, true)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// TestMultiFilePackage runs the suite over a fixture whose handle
// protocol spans two files; the analyzers see the whole package, so the
// findings must match the want comments exactly (reusing the fixture
// harness of lint_test.go).
func TestMultiFilePackage(t *testing.T) {
	dir := filepath.Join("testdata", "src", "multifile")
	pkg, err := testLoader().Load(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("fixture must span 2 files, got %d", len(pkg.Files))
	}
	res, err := LintAll(pkg, []string{"finishpath"})
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)
	for _, d := range res.Diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at line %d containing %q", w.line, w.substr)
		}
	}
}

// TestBrokenPackageStrictFails pins the strict loader's contract: type
// errors abort the load.
func TestBrokenPackageStrictFails(t *testing.T) {
	if _, err := NewLoader().Load(filepath.Join("testdata", "src", "broken")); err == nil {
		t.Fatal("strict Load accepted a package with type errors")
	}
}

// TestBrokenPackageLenient runs every analyzer over a package that
// does not type-check. The contract: no crash, type errors surfaced in
// TypeErrors, and analyzers still allowed to report whatever the partial
// information supports.
func TestBrokenPackageLenient(t *testing.T) {
	pkg, err := testLoader().LoadLenient(filepath.Join("testdata", "src", "broken"))
	if err != nil {
		t.Fatalf("lenient load failed: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("lenient load of a broken package reported no type errors")
	}
	res, err := LintAll(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No specific findings are required — partial info legitimately
	// reports less — but any finding produced must carry a valid check
	// name and position.
	for _, d := range append(res.Diags, res.Suppressed...) {
		if ByName(d.Check) == nil {
			t.Errorf("finding from unknown check: %s", d)
		}
		if d.Pos.Line <= 0 || d.Pos.Filename == "" {
			t.Errorf("finding without position: %s", d)
		}
	}
}

// TestLenientMatchesStrictOnCleanPackage guards against the lenient path
// silently diverging: on a type-correct package both loads must produce
// identical findings.
func TestLenientMatchesStrictOnCleanPackage(t *testing.T) {
	dir := filepath.Join("testdata", "src", "finishpath")
	strict, err := testLoader().Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := testLoader().LoadLenient(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lenient.TypeErrors) != 0 {
		t.Fatalf("clean package produced type errors: %v", lenient.TypeErrors)
	}
	sr, err := LintAll(strict, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := LintAll(lenient, nil)
	if err != nil {
		t.Fatal(err)
	}
	sd, ld := sr.Diags, lr.Diags
	if len(sd) != len(ld) {
		t.Fatalf("strict %d findings, lenient %d", len(sd), len(ld))
	}
	for i := range sd {
		if sd[i].String() != ld[i].String() {
			t.Errorf("finding %d differs: %s vs %s", i, sd[i], ld[i])
		}
	}
}

// TestLoadSourcePartialInfo feeds LoadSource a file with unresolvable
// imports and checks analyzers still run over the partial package.
func TestLoadSourcePartialInfo(t *testing.T) {
	src := `package p

import (
	"no/such/package"
	"green/internal/core"
)

func f(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	nosuch.Do()
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
}
`
	pkg, err := testLoader().LoadSource("partial.go", []byte(src))
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected type errors from the unresolvable import")
	}
	if _, err := LintAll(pkg, nil); err != nil {
		t.Fatal(err)
	}
}

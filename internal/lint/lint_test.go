package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes the source-importer type-checking cost across
// all fixture tests.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
)

func testLoader() *Loader {
	loaderOnce.Do(func() { sharedLoader = NewLoader() })
	return sharedLoader
}

// wantRx extracts the quoted substrings of a `// want "..." "..."`
// expectation comment.
var wantRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one expected diagnostic: a line plus a message
// substring.
type expectation struct {
	line    int
	substr  string
	matched bool
}

// parseWants scans every fixture file in dir for expectation comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, comment, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRx.FindAllStringSubmatch(comment, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", e.Name(), i+1, comment)
			}
			for _, m := range ms {
				wants = append(wants, &expectation{line: i + 1, substr: m[1]})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no expectations", dir)
	}
	return wants
}

// TestFixtures runs each analyzer against its fixture package and
// requires an exact match between reported and expected diagnostics.
// The mutants — one-edit copies of the examples under testdata/mutants,
// named <check>_<what> — go through the same matching with the whole
// suite on: the seeded violation is caught where its one want marker
// says, by the named check and by no other.
func TestFixtures(t *testing.T) {
	type fixture struct {
		name, dir, check string
		names            []string // checks to run; nil runs the suite
	}
	var tests []fixture
	for _, a := range Analyzers() {
		tests = append(tests, fixture{a.Name, filepath.Join("testdata", "src", a.Name), a.Name, []string{a.Name}})
	}
	mutants, err := os.ReadDir(filepath.Join("testdata", "mutants"))
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[string]int{}
	for _, m := range mutants {
		check, _, _ := strings.Cut(m.Name(), "_")
		seeded[check]++
		tests = append(tests, fixture{"mutants/" + m.Name(), filepath.Join("testdata", "mutants", m.Name()), check, nil})
	}
	for _, a := range Analyzers() {
		if seeded[a.Name] < 2 {
			t.Errorf("check %s has %d mutant(s) under testdata/mutants, want at least 2", a.Name, seeded[a.Name])
		}
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := testLoader().Load(tc.dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			res, err := LintAll(pkg, tc.names)
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, tc.dir)
			if tc.names == nil && len(wants) != 1 {
				t.Errorf("a mutant seeds one violation, %s declares %d", tc.dir, len(wants))
			}
			for _, d := range res.Diags {
				if d.Check != tc.check {
					t.Errorf("diagnostic from unexpected check: %s", d)
					continue
				}
				found := false
				for _, w := range wants {
					if !w.matched && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic at line %d containing %q", w.line, w.substr)
				}
			}
		})
	}
}

// TestCleanPackages dogfoods the full suite over real packages that use
// the Green API heavily; they must produce no findings.
func TestCleanPackages(t *testing.T) {
	for _, dir := range []string{
		"../../examples/quickstart",
		"../../examples/renderer",
		"../serve",
	} {
		pkg, err := testLoader().Load(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		res, err := LintAll(pkg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diags {
			t.Errorf("%s: unexpected finding: %s", dir, d)
		}
	}
}

// TestUnknownCheck exercises the check-selection error path.
func TestUnknownCheck(t *testing.T) {
	pkg, err := testLoader().Load(filepath.Join("testdata", "src", "ctrlcopy"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LintAll(pkg, []string{"nosuchcheck"}); err == nil {
		t.Fatal("unknown check accepted")
	}
}

// TestRepeatedCheckRunsOnce pins check selection as a set: naming a check
// twice reports each of its findings once, as naming it once does.
func TestRepeatedCheckRunsOnce(t *testing.T) {
	pkg, err := testLoader().Load(filepath.Join("testdata", "src", "ctrlcopy"))
	if err != nil {
		t.Fatal(err)
	}
	once, err := LintAll(pkg, []string{"ctrlcopy"})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := LintAll(pkg, []string{"ctrlcopy", "ctrlcopy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(once.Diags) == 0 || len(twice.Diags) != len(once.Diags) {
		t.Errorf("ctrlcopy once: %d findings, twice: %d", len(once.Diags), len(twice.Diags))
	}
}

// TestAnalyzerMetadata keeps names and docs well-formed; the driver's
// -list and -checks flags depend on them. The catalogue is written down
// three more times — this package's comment, README's check table and
// DESIGN's lost-guarantee table — and each must name exactly the checks
// Analyzers() returns.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.run == nil {
			t.Errorf("incomplete analyzer %+v", a)
		}
		switch a.Tier {
		case TierBlock, TierCFG:
		default:
			t.Errorf("analyzer %q has unknown tier %q", a.Name, a.Tier)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName accepted an unknown name")
	}

	// A catalogue row opens with the check's name: "//\tname  — " in the
	// package comment, "| `name` |" in the markdown tables.
	tableRow := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	for _, doc := range []struct {
		file string
		row  *regexp.Regexp
	}{
		{"lint.go", regexp.MustCompile(`(?m)^//\t([a-z]+) +— `)},
		{"../../README.md", tableRow},
		{"../../DESIGN.md", tableRow},
	} {
		data, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		text, _, _ := strings.Cut(string(data), "\npackage lint\n") // lint.go: the package comment only
		listed := map[string]bool{}
		for _, m := range doc.row.FindAllStringSubmatch(text, -1) {
			listed[m[1]] = true
			if !seen[m[1]] {
				t.Errorf("%s lists check %q, which Analyzers() does not return", doc.file, m[1])
			}
		}
		for name := range seen {
			if !listed[name] {
				t.Errorf("%s does not list check %q", doc.file, name)
			}
		}
	}
}

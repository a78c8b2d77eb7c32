package cmdtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repoRoot is the module root relative to this package's directory.
const repoRoot = "../.."

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds every cmd/... binary, and the quickstart example, once
// per test run and returns the output directory.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := filepath.Abs("testbin")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		pkgs := []string{"./cmd/greencal", "./cmd/greenbench", "./cmd/greenserve", "./cmd/greenlint", "./examples/quickstart"}
		cmd := exec.Command("go", append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...)
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("go build ./cmd/...: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return buildDir
}

// run invokes one built binary and returns combined output and exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	abs, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), bin), args...)
	cmd.Dir = abs // greenlint resolves go-list patterns from the module root
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestHelpExitsZero(t *testing.T) {
	for _, bin := range []string{"greencal", "greenbench", "greenserve", "greenlint"} {
		t.Run(bin, func(t *testing.T) {
			out, code := run(t, bin, "--help")
			if code != 0 {
				t.Fatalf("%s --help exited %d:\n%s", bin, code, out)
			}
			if !strings.Contains(strings.ToLower(out), "usage") {
				t.Errorf("%s --help printed no usage:\n%s", bin, out)
			}
		})
	}
}

// TestGreenserveRefusesNegativeFlags: a negative snapshot period or
// calibration log size is a startup error, not a panic after boot.
func TestGreenserveRefusesNegativeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-state-dir", t.TempDir(), "-snapshot-interval", "-1s"},
		{"-cal-queries", "-1"},
	} {
		out, code := run(t, "greenserve", append([]string{"-addr", "127.0.0.1:0", "-docs", "1000"}, args...)...)
		if code != 1 || !strings.Contains(out, "greenserve: ") || strings.Contains(out, "panic") {
			t.Errorf("greenserve %v: exit %d, want 1 with an error message:\n%s", args, code, out)
		}
	}
}

func TestGreencalList(t *testing.T) {
	out, code := run(t, "greencal", "-list")
	if code != 0 || strings.TrimSpace(out) == "" {
		t.Fatalf("greencal -list: exit %d, output %q", code, out)
	}
	if !strings.Contains(out, "search") {
		t.Errorf("greencal -list does not mention the search app:\n%s", out)
	}
}

// TestGreencalRefusesBadSLA: an -sla outside (0,1], NaN included, is a
// usage error, not a value silently ignored or resolved against a model
// no controller would accept.
func TestGreencalRefusesBadSLA(t *testing.T) {
	for _, sla := range []string{"-1", "0", "NaN", "2"} {
		out, code := run(t, "greencal", "-app", "exp", "-scale", "0.05", "-sla", sla)
		if code != 2 || !strings.Contains(out, "outside (0,1]") {
			t.Errorf("greencal -sla %s: exit %d, want 2 naming the range:\n%s", sla, code, out)
		}
	}
	out, code := run(t, "greencal", "-app", "exp", "-scale", "0.05", "-sla", "1")
	if code != 0 || !strings.Contains(out, "greencal: SLA 1.0000 ->") {
		t.Errorf("greencal -sla 1: exit %d, want 0 with a resolution:\n%s", code, out)
	}
}

func TestGreenbenchList(t *testing.T) {
	out, code := run(t, "greenbench", "-list")
	if code != 0 || strings.TrimSpace(out) == "" {
		t.Fatalf("greenbench -list: exit %d, output %q", code, out)
	}
}

func TestGreenlintList(t *testing.T) {
	out, code := run(t, "greenlint", "-list")
	if code != 0 {
		t.Fatalf("greenlint -list exited %d:\n%s", code, out)
	}
	for _, check := range []string{
		"beginfinish", "continuecond", "ctrlcopy",
		"finishpath", "handleescape", "errdrop", "nondet",
	} {
		if !strings.Contains(out, check) {
			t.Errorf("greenlint -list is missing check %q:\n%s", check, out)
		}
	}
	// Every line carries the tier column; both tiers appear across the
	// suite.
	tiers := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("list line missing tier column: %q", line)
			continue
		}
		switch fields[1] {
		case "block", "cfg":
			tiers[fields[1]]++
		default:
			t.Errorf("list line has unknown tier %q: %q", fields[1], line)
		}
	}
	for _, tier := range []string{"block", "cfg"} {
		if tiers[tier] == 0 {
			t.Errorf("no check listed in tier %q:\n%s", tier, out)
		}
	}
}

func TestGreenlintFindsFixtureViolations(t *testing.T) {
	out, code := run(t, "greenlint", "internal/lint/testdata/src/ctrlcopy")
	if code != 1 {
		t.Fatalf("greenlint on a broken fixture exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "[ctrlcopy]") {
		t.Errorf("diagnostics missing [ctrlcopy] tag:\n%s", out)
	}
}

func TestGreenlintUnknownCheckExitsTwo(t *testing.T) {
	out, code := run(t, "greenlint", "-checks", "nosuch", "internal/lint/testdata/src/ctrlcopy")
	if code != 2 {
		t.Fatalf("greenlint -checks nosuch exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "valid:") || !strings.Contains(out, "finishpath") {
		t.Errorf("unknown-check error does not list the valid names:\n%s", out)
	}
	// The valid names carry their tier, so the user sees the cost class
	// of what they could have asked for.
	for _, want := range []string{"finishpath(cfg)", "ctrlcopy(block)", "beginfinish(block)"} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-check error is missing %q:\n%s", want, out)
		}
	}
}

func TestGreenlintUnknownFormatExitsTwo(t *testing.T) {
	out, code := run(t, "greenlint", "-format", "xml", "internal/lint/testdata/src/ctrlcopy")
	if code != 2 {
		t.Fatalf("greenlint -format xml exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "text, json, sarif") {
		t.Errorf("unknown-format error does not list the valid formats:\n%s", out)
	}
}

// TestGreenlintSARIF checks the sarif writer end to end: the document on
// stdout must parse as SARIF 2.1.0 with greenlint as the driver and at
// least one result (the fixture is full of violations).
func TestGreenlintSARIF(t *testing.T) {
	stdout, _, code := runSplit(t, "greenlint", "-format", "sarif", "internal/lint/testdata/src/ctrlcopy")
	if code != 1 {
		t.Fatalf("greenlint -format sarif on a broken fixture exited %d, want 1", code)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string            `json:"name"`
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("sarif output is not valid JSON: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "greenlint" {
		t.Errorf("sarif run/driver malformed: %+v", doc.Runs)
	}
	if len(doc.Runs[0].Results) == 0 {
		t.Error("sarif output has no results for a fixture full of violations")
	}
	if len(doc.Runs[0].Tool.Driver.Rules) == 0 {
		t.Error("sarif driver lists no rules")
	}
}

// TestGreenlintSuppressedClean runs the full-module self-lint: the tree
// must be clean apart from in-source justified suppressions, which keep
// the exit status at 0.
func TestGreenlintSelfRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is slow")
	}
	out, code := run(t, "greenlint", "./...")
	if code != 0 {
		t.Fatalf("greenlint ./... exited %d — the tree must lint clean:\n%s", code, out)
	}
}

// runSplit is run with stdout and stderr separated (JSON/SARIF parsing
// needs a clean stdout; the findings summary goes to stderr).
func runSplit(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	abs, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), bin), args...)
	cmd.Dir = abs
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	code := 0
	if runErr != nil {
		ee, ok := runErr.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, runErr)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestQuickstartVerdict runs README's first example and requires its
// last line to read "verdict: met", held to the true loss and the SLA it
// printed: under the derived-step law M is lowered only where the
// corrected model keeps the lower level inside the SLA, so the run ends
// inside it.
func TestQuickstartVerdict(t *testing.T) {
	out, code := run(t, "quickstart")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(lines) < 2 {
		t.Fatalf("quickstart: exit %d:\n%s", code, out)
	}
	var sla, loss float64
	for _, line := range lines {
		if _, err := fmt.Sscanf(line, "SLA %g", &sla); err == nil {
			break
		}
	}
	prev, last := lines[len(lines)-2], lines[len(lines)-1]
	i := strings.LastIndex(prev, "true loss ")
	if i < 0 || sla <= 0 {
		t.Fatalf("quickstart printed no SLA or true loss:\n%s", out)
	}
	if _, err := fmt.Sscanf(prev[i:], "true loss %g", &loss); err != nil {
		t.Fatalf("%q: %v", prev, err)
	}
	// The printed loss has three significant digits: a ratio within
	// their rounding of 1 still reads met.
	if ratio := loss / sla; last != "verdict: met" || ratio > 1.005 {
		t.Errorf("%q with true loss %g against SLA %g (×%.3f), want verdict: met", last, loss, sla, ratio)
	}
}

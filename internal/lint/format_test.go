package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureResult lints the finishpath fixture (which contains both active
// and suppressed findings) with the full suite.
func fixtureResult(t *testing.T) Result {
	t.Helper()
	pkg, err := testLoader().Load(filepath.Join("testdata", "src", "finishpath"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := LintAll(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) == 0 {
		t.Fatal("fixture produced no active findings")
	}
	if len(res.Suppressed) == 0 {
		t.Fatal("fixture produced no suppressed findings")
	}
	return res
}

func TestParseFormat(t *testing.T) {
	for _, f := range ValidFormats() {
		if got, err := ParseFormat(f); err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %q, %v", f, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted an unknown format")
	}
}

func TestWriteText(t *testing.T) {
	res := fixtureResult(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, res, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != len(res.Diags) {
		t.Errorf("want %d lines, got:\n%s", len(res.Diags), out)
	}
	if !strings.Contains(out, "[finishpath]") {
		t.Errorf("missing check tag in:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	res := fixtureResult(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res, ""); err != nil {
		t.Fatal(err)
	}
	var out []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(out) != len(res.Diags)+len(res.Suppressed) {
		t.Fatalf("want %d entries, got %d", len(res.Diags)+len(res.Suppressed), len(out))
	}
	suppressed := 0
	for _, d := range out {
		if d.Suppressed {
			suppressed++
			if d.SuppressReason == "" {
				t.Error("suppressed entry without a reason")
			}
		}
	}
	if suppressed != len(res.Suppressed) {
		t.Errorf("want %d suppressed entries, got %d", len(res.Suppressed), suppressed)
	}
}

// TestWriteSARIF checks the emitted document against the structural
// requirements of SARIF 2.1.0 that GitHub code scanning relies on.
func TestWriteSARIF(t *testing.T) {
	res := fixtureResult(t)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, res, ""); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %v", log["$schema"])
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("want exactly one run, got %v", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "greenlint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(Analyzers()) {
		t.Fatalf("want %d rules, got %d", len(Analyzers()), len(rules))
	}
	ruleIDs := map[string]int{}
	for i, r := range rules {
		ruleIDs[r.(map[string]any)["id"].(string)] = i
	}
	results := run["results"].([]any)
	if len(results) != len(res.Diags)+len(res.Suppressed) {
		t.Fatalf("want %d results, got %d", len(res.Diags)+len(res.Suppressed), len(results))
	}
	suppressed := 0
	for _, ri := range results {
		r := ri.(map[string]any)
		id := r["ruleId"].(string)
		idx, ok := ruleIDs[id]
		if !ok {
			t.Errorf("result ruleId %q not in rules", id)
		}
		if int(r["ruleIndex"].(float64)) != idx {
			t.Errorf("ruleIndex for %q = %v, want %d", id, r["ruleIndex"], idx)
		}
		locs := r["locations"].([]any)
		if len(locs) != 1 {
			t.Fatalf("want one location, got %d", len(locs))
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		uri := phys["artifactLocation"].(map[string]any)["uri"].(string)
		if strings.Contains(uri, "\\") {
			t.Errorf("artifact URI %q contains backslashes", uri)
		}
		if line := phys["region"].(map[string]any)["startLine"].(float64); line < 1 {
			t.Errorf("startLine %v < 1", line)
		}
		if sup, ok := r["suppressions"].([]any); ok {
			suppressed++
			s := sup[0].(map[string]any)
			if s["kind"] != "inSource" {
				t.Errorf("suppression kind = %v", s["kind"])
			}
			if s["justification"] == "" {
				t.Error("suppression without justification")
			}
		}
	}
	if suppressed != len(res.Suppressed) {
		t.Errorf("want %d suppressed results, got %d", len(res.Suppressed), suppressed)
	}
}

// TestSARIFRelativeURIs verifies base-relative artifact locations.
func TestSARIFRelativeURIs(t *testing.T) {
	res := fixtureResult(t)
	base, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, res, base); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"uri": "testdata/src/finishpath/finishpath.go"`) {
		t.Error("artifact URI not relative to base")
	}
}

func TestMerge(t *testing.T) {
	res := fixtureResult(t)
	m := Merge([]Result{{Diags: res.Diags}, {Suppressed: res.Suppressed}})
	if len(m.Diags) != len(res.Diags) || len(m.Suppressed) != len(res.Suppressed) {
		t.Fatalf("merge lost findings: %d/%d vs %d/%d",
			len(m.Diags), len(m.Suppressed), len(res.Diags), len(res.Suppressed))
	}
}

package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Output formats for the driver. Text is the classic
// "file:line: [check] message" stream; JSON is a small machine-readable
// array; SARIF is the Static Analysis Results Interchange Format 2.1.0,
// the schema GitHub code scanning ingests for PR annotations.

// Format names accepted by ParseFormat / the driver's -format flag.
const (
	FormatText  = "text"
	FormatJSON  = "json"
	FormatSARIF = "sarif"
)

// ValidFormats lists the accepted -format values in display order.
func ValidFormats() []string { return []string{FormatText, FormatJSON, FormatSARIF} }

// ParseFormat validates a format name.
func ParseFormat(name string) (string, error) {
	for _, f := range ValidFormats() {
		if name == f {
			return f, nil
		}
	}
	return "", fmt.Errorf("lint: unknown format %q (valid: %s)", name, strings.Join(ValidFormats(), ", "))
}

// relPath rewrites an absolute diagnostic path relative to base when the
// file lies underneath it, using forward slashes (SARIF requires URIs).
func relPath(base, file string) string {
	if base == "" {
		return filepath.ToSlash(file)
	}
	if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// WriteText prints the canonical text form of res (active findings only;
// the suppressed ones are summarized by the driver), in position order.
func WriteText(w io.Writer, res Result, base string) error {
	for _, d := range res.Diags {
		if _, err := fmt.Fprintf(w, "%s:%d: [%s] %s\n", relPath(base, d.Pos.Filename), d.Pos.Line, d.Check, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// jsonDiag is the JSON projection of one diagnostic.
type jsonDiag struct {
	File           string `json:"file"`
	Line           int    `json:"line"`
	Column         int    `json:"column"`
	Check          string `json:"check"`
	Message        string `json:"message"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// WriteJSON emits all findings (active and suppressed) as a JSON array.
func WriteJSON(w io.Writer, res Result, base string) error {
	out := make([]jsonDiag, 0, len(res.Diags)+len(res.Suppressed))
	for _, d := range res.Diags {
		out = append(out, jsonDiag{
			File: relPath(base, d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		})
	}
	for _, d := range res.Suppressed {
		out = append(out, jsonDiag{
			File: relPath(base, d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
			Check: d.Check, Message: d.Message,
			Suppressed: true, SuppressReason: d.SuppressReason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0 document structure — only the properties greenlint emits,
// named per the OASIS schema.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string         `json:"id"`
	ShortDescription sarifMessage   `json:"shortDescription"`
	Properties       map[string]any `json:"properties,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// sarifToolVersion labels the driver in SARIF output; bumped with the
// analyzer suite, not the module.
const sarifToolVersion = "4.0.0"

// WriteSARIF emits a SARIF 2.1.0 log for the findings. Suppressed
// findings are included as suppressed results (kind "inSource" with the
// directive's justification), which code-scanning UIs display without
// failing the run. base anchors the relative artifact URIs, normally the
// working directory the scanner ran in.
func WriteSARIF(w io.Writer, res Result, base string) error {
	rules := make([]sarifRule, 0)
	ruleIndex := map[string]int{}
	for i, a := range Analyzers() {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{a.Doc},
			Properties:       map[string]any{"category": "contract", "tier": a.Tier}, // one category is left; consumers filter on the key
		})
		ruleIndex[a.Name] = i
	}

	result := func(d Diagnostic, suppress []sarifSuppression) sarifResult {
		return sarifResult{
			RuleID:    d.Check,
			RuleIndex: ruleIndex[d.Check],
			Level:     "warning",
			Message:   sarifMessage{d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{
					URI:       relPath(base, d.Pos.Filename),
					URIBaseID: "%SRCROOT%",
				},
				Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
			Suppressions: suppress,
		}
	}

	results := make([]sarifResult, 0, len(res.Diags)+len(res.Suppressed))
	for _, d := range res.Diags {
		results = append(results, result(d, nil))
	}
	for _, d := range res.Suppressed {
		results = append(results, result(d, []sarifSuppression{{
			Kind:          "inSource",
			Justification: d.SuppressReason,
		}}))
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:    "greenlint",
				Version: sarifToolVersion,
				Rules:   rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// Merge combines per-package results into one document (for the driver,
// which lints many packages but emits a single JSON/SARIF log).
func Merge(results []Result) Result {
	var out Result
	for _, r := range results {
		out.Diags = append(out.Diags, r.Diags...)
		out.Suppressed = append(out.Suppressed, r.Suppressed...)
	}
	sortDiags(out.Diags)
	sortDiags(out.Suppressed)
	return out
}

package lint

import (
	"strings"
)

// Suppression directives.
//
// A finding is muted by a comment of the form
//
//	//greenlint:ignore <check> <reason>
//
// placed either on the same line as the finding or on the line directly
// above it. <check> must name the analyzer being silenced (one directive
// per check; there is no wildcard — each suppression is a reviewed,
// per-check decision) and <reason> is a mandatory free-form
// justification. A directive without a reason is inert: the finding
// stays active, which is deliberate — an unjustified suppression should
// be visible, not silently obeyed.
//
// Suppressed findings are not discarded: LintAll returns them with the
// justification attached, and the SARIF writer emits them as suppressed
// results so code-scanning UIs can show the audit trail.

const ignorePrefix = "greenlint:ignore"

// suppression is one parsed directive.
type suppression struct {
	check  string
	reason string
}

// suppressionIndex maps file → line → the directives on that line.
type suppressionIndex map[string]map[int][]suppression

// collectSuppressions parses every //greenlint:ignore directive in the
// package. Only line comments are honored; the directive grammar is
// line-oriented.
func collectSuppressions(pkg *Package) suppressionIndex {
	idx := suppressionIndex{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments are not directives
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no check or no reason: inert by design
				}
				check, reason := fields[0], strings.Join(fields[1:], " ")
				pos := pkg.Fset.Position(c.Pos())
				file := idx[pos.Filename]
				if file == nil {
					file = map[int][]suppression{}
					idx[pos.Filename] = file
				}
				file[pos.Line] = append(file[pos.Line], suppression{check, reason})
			}
		}
	}
	return idx
}

// applySuppressions splits diags into active and suppressed findings
// according to the package's directives.
func applySuppressions(pkg *Package, diags []Diagnostic) Result {
	idx := collectSuppressions(pkg)
	var res Result
	for _, d := range diags {
		if reason, ok := idx.match(d); ok {
			d.SuppressReason = reason
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diags = append(res.Diags, d)
		}
	}
	return res
}

// match finds a directive covering d: same file, same check, on the
// finding's line or the line above it.
func (idx suppressionIndex) match(d Diagnostic) (string, bool) {
	file := idx[d.Pos.Filename]
	if file == nil {
		return "", false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, s := range file[line] {
			if s.check == d.Check {
				return s.reason, true
			}
		}
	}
	return "", false
}

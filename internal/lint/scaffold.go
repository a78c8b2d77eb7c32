package lint

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scaffold codegen: each suggestion can be materialized as a compilable
// .go file the programmer calibrates instead of writing green.Loop
// boilerplate from scratch. The scaffold carries:
//
//   - a LoopQoS stub typed after the accumulator — Record snapshots the
//     live value, Loss computes the relative error against a precise
//     reference (the paper's QoS_Compute shape);
//   - an Approx runner wiring Begin / Continue(i) / Finish around a
//     TODO marker where the original body goes, with the loop's own
//     induction variable name;
//   - when the body has a dominant pure float64→float64 call site, a
//     green.Func adapter as the alternative wrapping (substitute graded
//     versions of the callee instead of truncating the loop).
//
// Generated files declare the package they were discovered in, so
// dropping one next to its source compiles (the compile-check test
// type-checks every scaffold against its fixture package). The text is
// rendered from a template, then round-tripped through go/parser and
// go/printer so output is canonically formatted and syntax errors in
// the generator fail loudly at emit time, not at the user's build.

// ScaffoldName returns the identifier base of a suggestion's scaffold:
// the enclosing function (lower-cased first rune), the shape, and the
// loop's line, e.g. "transformReduceL41".
func ScaffoldName(s *Suggestion) string {
	return lowerFirst(s.Func) + kindWord(s.Kind) + fmt.Sprintf("L%d", s.Diag.Pos.Line)
}

// ScaffoldFileName returns the file name a scaffold is written under:
// deterministic, collision-free per (source file, function, shape,
// line), and machine-independent (no absolute paths).
func ScaffoldFileName(s *Suggestion) string {
	base := strings.TrimSuffix(filepath.Base(s.Diag.Pos.Filename), ".go")
	return fmt.Sprintf("suggest_%s_%s.go", sanitizeIdent(base), strings.ToLower(ScaffoldName(s)))
}

func kindWord(kind string) string {
	switch kind {
	case "reduction":
		return "Reduce"
	case "convergence":
		return "Converge"
	case "early-exit":
		return "Scan"
	}
	return "Loop"
}

func lowerFirst(s string) string {
	if s == "" {
		return "loop"
	}
	r, n := utf8.DecodeRuneInString(s)
	return string(unicode.ToLower(r)) + s[n:]
}

// sanitizeIdent maps a file base name onto the identifier alphabet.
func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ScaffoldSource renders the scaffold for one suggestion as a formatted
// Go source file declaring pkgName.
func ScaffoldSource(s *Suggestion, pkgName string) ([]byte, error) {
	name := ScaffoldName(s)
	srcBase := filepath.Base(s.Diag.Pos.Filename)
	site := fmt.Sprintf("%s:%d", srcBase, s.Diag.Pos.Line)
	induction := s.Induction
	if induction == "" {
		induction = "i"
	}
	accum := s.Accum
	if accum == "" {
		accum = "the accumulator"
	}
	// A type the checker could not resolve, at any depth, prints as
	// "invalid type", which is not Go.
	typ := s.AccumType
	if typ == "" || strings.Contains(typ, "invalid type") {
		typ = "float64"
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, `// Scaffold emitted by greenlint -suggest for the %s loop at %s
// (function %s, accumulator %s, score %.1f). Review, move the original
// loop body where marked, and calibrate before shipping.
package %s

import "green"

// %sQoS measures the quality of the approximated loop against its
// precise result (the paper's QoS_Compute). Wire Current to read the
// live value of %s and set Precise from a calibration run.
type %sQoS struct {
	// Current reads the live accumulator mid-loop.
	Current func() %s
	// Precise is the exact final value, for Loss computation.
	Precise %s

	recorded %s
}

// Record snapshots the accumulator at iter (QoS_Compute mode 0).
func (q *%sQoS) Record(iter int) { q.recorded = q.Current() }

// Loss returns the relative error of the recorded snapshot against the
// precise result (QoS_Compute mode 1).
func (q *%sQoS) Loss(iter int) float64 {
	precise := float64(q.Precise)
	approx := float64(q.recorded)
	if precise == 0 {
		if approx == 0 {
			return 0
		}
		return 1
	}
	d := (precise - approx) / precise
	if d < 0 {
		d = -d
	}
	return d
}

// %sApprox runs the loop at %s under loop's controller: Continue
// decides early termination, Finish reports the observation for
// recalibration.
func %sApprox(loop *green.Loop, qos *%sQoS) (green.Result, error) {
	exec, err := loop.Begin(qos)
	if err != nil {
		return green.Result{}, err
	}
	%s := 0
	for exec.Continue(%s) {
		// TODO: original body of the %s loop at %s
		// (accumulates %s).
		%s++
	}
	return exec.Finish(%s), nil
}
`,
		s.Kind, site,
		s.Func, accum, s.Score,
		pkgName,
		name, accum, name, typ, typ, typ,
		name,
		name,
		name, site, name, name,
		induction, induction,
		s.Kind, site, accum,
		induction, induction)

	if s.FnCallee != "" {
		fmt.Fprintf(&b, `
// %sFn is the green.Func alternative: the body's dominant pure call
// (%s) is float64→float64, so substituting graded versions of it
// approximates the loop without touching its control flow. Route the
// call site through f.
func %sFn(f *green.Func, x float64) float64 {
	return f.Call(x)
}
`, name, s.FnCallee, name)
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, ScaffoldFileName(s), b.Bytes(), parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: scaffold for %s does not parse: %v", site, err)
	}
	var out bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&out, fset, file); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// WriteScaffolds renders and writes one scaffold file per suggestion
// into dir (created if missing), returning the written paths in
// suggestion order. pkgName is the package the suggestions came from.
func WriteScaffolds(dir, pkgName string, sugs []Suggestion) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i := range sugs {
		src, err := ScaffoldSource(&sugs[i], pkgName)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, ScaffoldFileName(&sugs[i]))
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Package lint implements greenlint: static analysis that enforces the
// usage contract of the Green approximation API.
//
// The paper implements Green as a Phoenix compiler extension, so misuse
// of the #approx_loop / #approx_func annotations is rejected at build
// time. This library port has no compiler hook, so the same contract is
// restored here as a suite of AST/type-based analyzers over the package
// green and green/internal/core APIs:
//
//	beginfinish  — every execution handle (a *LoopExec or *LoopBatch,
//	               whichever entry point returned it) must be Finished
//	continuecond — exec.Continue(i) must guard the for condition (or
//	               exec.ContinueN(i, n) bound the loop's blocks), with
//	               a non-constant induction argument
//	slarange     — literal config fields must be in range (SLA in (0,1],
//	               positive SampleInterval, complete AdaptiveParams)
//	ctrlcopy     — mutex-bearing controllers must not be copied by value
//	calorder     — App.Register must precede operational ObserveAppQoS
//
// The analyzers are deliberately dependency-free: they run on the
// standard library's go/parser, go/ast, go/types stack (see Loader), so
// the suite works in hermetic build environments where module fetching
// of golang.org/x/tools is unavailable. The check logic is structured
// analyzer-per-file so a future migration to x/tools/go/analysis (and
// therefore `go vet -vettool`) is a mechanical wrapping exercise.
//
// Beside the contract checks above, the suite carries a suggestion-mode
// analyzer family (suggestreduce, suggestconverge, suggestscan — see
// suggest.go) that inverts the direction of analysis: instead of
// enforcing annotations the programmer already wrote, it walks every
// function's CFG looking for approximable-loop shapes and emits
// ready-to-calibrate green.Loop scaffolds. Suggestion findings are
// advisory and never fail a build on their own.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Import paths of the packages whose API the analyzers understand. The
// root package green re-exports the core types as aliases, so resolving
// through types.Unalias always lands on these.
const (
	corePath  = "green/internal/core"
	modelPath = "green/internal/model"
)

// Diagnostic is one finding, printable as "file:line: [check] message".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// SuppressReason is the justification of the //greenlint:ignore
	// directive that suppressed this finding; empty for active findings.
	SuppressReason string
	// Flow is the source→sink path of an interprocedural finding, first
	// step at the taint source, last step at the sink. Empty for
	// single-point findings. The SARIF writer renders it as a codeFlow.
	Flow []FlowStep
}

// FlowStep is one hop of a taint path: where it happened and what
// happened there ("approximate source: ...", "passed to parameter ...",
// "sink: ...").
type FlowStep struct {
	Pos  token.Position
	Note string
}

// String formats the diagnostic in the canonical driver output form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	check string
	diags *[]Diagnostic
}

// reportf records a diagnostic for the running check at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer categories. Contract checks enforce the Green API usage
// contract and fail the build; suggest checks discover approximable
// sites and are advisory (they never flip the driver's exit status
// unless explicitly opted into with -fail-on suggest).
const (
	CategoryContract = "contract"
	CategorySuggest  = "suggest"
)

// Analyzer tiers describe the machinery a check runs on, from cheapest
// to deepest. The driver's -list output prints the tier so users can
// predict cost and precision:
//
//	block    — single-AST pattern checks, no flow reasoning
//	cfg      — intraprocedural flow/path analysis over the CFG layer
//	suggest  — CFG-driven site discovery (advisory)
//	interproc— whole-package call-graph + summary analysis
const (
	TierBlock     = "block"
	TierCFG       = "cfg"
	TierSuggest   = "suggest"
	TierInterproc = "interproc"
)

// An Analyzer is one named check.
type Analyzer struct {
	// Name is the check name used in diagnostics and -checks selection.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Category is CategoryContract or CategorySuggest.
	Category string
	// Tier is TierBlock, TierCFG, TierSuggest, or TierInterproc.
	Tier string
	run  func(*Pass)
}

// Analyzers returns the full suite in stable order: the five AST-level
// checks of the original suite, the four CFG/dataflow analyzers, the
// interprocedural taint family, then the suggestion-mode site-discovery
// family.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerBeginFinish,
		analyzerContinueCond,
		analyzerSLARange,
		analyzerCtrlCopy,
		analyzerCalOrder,
		analyzerFinishPath,
		analyzerHandleEscape,
		analyzerErrDrop,
		analyzerNonDet,
		analyzerTaintSink,
		analyzerTaintEndorse,
		analyzerTaintEscape,
		analyzerSuggestReduce,
		analyzerSuggestConverge,
		analyzerSuggestScan,
	}
}

// AnalyzersByCategory returns the analyzers of one category, in the
// Analyzers() order.
func AnalyzersByCategory(cat string) []*Analyzer {
	var out []*Analyzer
	for _, a := range Analyzers() {
		if a.Category == cat {
			out = append(out, a)
		}
	}
	return out
}

// ByName resolves a check name; nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Result is the outcome of linting one package: the active findings plus
// the findings muted by //greenlint:ignore directives (each carrying its
// justification), both sorted by position. When the driver runs in
// suggestion mode, Suggestions carries the ranked site candidates
// (best first); they are advisory and do not affect exit status.
type Result struct {
	Diags       []Diagnostic
	Suppressed  []Diagnostic
	Suggestions []Suggestion
}

// Lint runs the named checks (all contract checks when names is empty)
// over a loaded package and returns the active findings sorted by
// position. Suppressed findings are dropped; use LintAll to see them.
func Lint(pkg *Package, names []string) ([]Diagnostic, error) {
	res, err := LintAll(pkg, names)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// LintAll runs the named checks over a loaded package, applies the
// package's suppression directives, and returns both the active and the
// suppressed findings. An empty names list selects every contract
// check; the suggestion-mode analyzers run only when named explicitly
// (or through Suggest, which also returns the structured candidates).
func LintAll(pkg *Package, names []string) (Result, error) {
	analyzers := AnalyzersByCategory(CategoryContract)
	if len(names) > 0 {
		analyzers = analyzers[:0:0]
		for _, n := range names {
			a := ByName(n)
			if a == nil {
				return Result{}, fmt.Errorf("lint: unknown check %q", n)
			}
			analyzers = append(analyzers, a)
		}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			check: a.Name,
			diags: &diags,
		}
		a.run(pass)
	}
	res := applySuppressions(pkg, diags)
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res, nil
}

// sortDiags orders diagnostics by file, line, then check name.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		// Interprocedural findings can share file:line:check (one sink,
		// several origins); column and message keep the order total.
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

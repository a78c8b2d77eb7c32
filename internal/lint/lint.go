// Package lint implements greenlint: static analysis that enforces the
// usage contract of the Green approximation API.
//
// The paper implements Green as a Phoenix compiler extension, so misuse
// of the #approx_loop / #approx_func annotations is rejected at build
// time. This library port has no compiler hook, so the same contract is
// restored here as a suite of AST/type-based analyzers over the package
// green and green/internal/core APIs, one check per lost guarantee that
// the compiler, go vet and the controllers' constructors all let through:
//
//	beginfinish  — every execution handle (a *LoopExec or *LoopBatch,
//	               whichever entry point returned it) must be Finished
//	continuecond — exec.Continue(i) must guard the for condition (or
//	               exec.ContinueN(i, n) bound the loop's blocks), with
//	               a non-constant induction argument
//	ctrlcopy     — mutex-bearing controllers must not be copied by value
//	finishpath   — every path from a handle's constructor reaches exactly
//	               one Finish, early returns included
//	handleescape — a pooled handle must not outlive its frame
//	errdrop      — error results of Green API calls must not be dropped
//	nondet       — calibration and Selector code must not read the wall
//	               clock or the global math/rand source
//
// A misuse the API can refuse is refused there instead: an SLA outside
// (0,1] fails NewLoop/NewFunc, and NewApp takes its units, so none can
// join after operation starts. What each check costs and has caught is in
// results/lint_checks.txt (scripts/lint_score.sh); DESIGN.md §7 has the
// rule that keeps them.
//
// The analyzers are deliberately dependency-free: they run on the
// standard library's go/parser, go/ast, go/types stack (see Loader), so
// the suite works in hermetic build environments where module fetching
// of golang.org/x/tools is unavailable. The check logic is structured
// analyzer-per-file so a future migration to x/tools/go/analysis (and
// therefore `go vet -vettool`) is a mechanical wrapping exercise.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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

// Analyzer tiers name the machinery a check runs on, cheapest first; the
// driver's -list prints them so users can predict cost and precision.
const (
	TierBlock = "block" // single-AST pattern checks, no flow reasoning
	TierCFG   = "cfg"   // intraprocedural flow/path analysis over the CFG layer
)

// An Analyzer is one named check.
type Analyzer struct {
	// Name is the check name used in diagnostics and -checks selection.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Tier is TierBlock or TierCFG.
	Tier string
	run  func(*Pass)
}

// Analyzers returns the full suite in stable order: the three AST-level
// checks, then the four CFG/dataflow analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerBeginFinish,
		analyzerContinueCond,
		analyzerCtrlCopy,
		analyzerFinishPath,
		analyzerHandleEscape,
		analyzerErrDrop,
		analyzerNonDet,
	}
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
// justification), both sorted by position.
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// LintAll runs the named checks over a loaded package, applies the
// package's suppression directives, and returns both the active and the
// suppressed findings. An empty names list selects every check; a name
// given twice runs once.
func LintAll(pkg *Package, names []string) (Result, error) {
	analyzers := Analyzers()
	if len(names) > 0 {
		analyzers = analyzers[:0:0]
		for _, n := range names {
			a := ByName(n)
			if a == nil {
				return Result{}, fmt.Errorf("lint: unknown check %q", n)
			}
			if !slices.Contains(analyzers, a) {
				analyzers = append(analyzers, a)
			}
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
		// Findings can share file:line:check; column and message keep
		// the order total.
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

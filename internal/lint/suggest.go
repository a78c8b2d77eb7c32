package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Suggestion mode: site discovery.
//
// The contract analyzers enforce annotations the programmer already
// wrote; the suggestion family inverts the direction and *finds* the
// sites. It walks every function's CFG looking for the three
// approximable-loop shapes of the paper's evaluation:
//
//	suggestreduce   — monotone-accumulator reductions: a numeric
//	                  accumulator that only ever grows (or only ever
//	                  shrinks) across iterations, the §2.1
//	                  early-termination pattern (DFT sums, sample
//	                  accumulation buffers).
//	suggestconverge — convergence loops: the for condition compares an
//	                  iteration-carried delta against a threshold
//	                  (relaxation sweeps, iterative solvers).
//	suggestscan     — early-exit scans: a break or return guarded by a
//	                  comparison on a value accumulated in the loop, the
//	                  Bing/search top-N shape.
//
// Candidates are ranked by a static cost heuristic (suggestrank.go) and
// each can be materialized as a ready-to-calibrate green.Loop scaffold
// (scaffold.go). Loops already guarded by exec.Continue are skipped:
// the site is greened, there is nothing left to discover.

var analyzerSuggestReduce = &Analyzer{
	Name:     "suggestreduce",
	Category: CategorySuggest,
	Tier:     TierSuggest,
	Doc:      "suggest: monotone-accumulator reduction loops that fit green.Loop early termination",
	run:      func(p *Pass) { reportSuggestions(p, "suggestreduce") },
}

var analyzerSuggestConverge = &Analyzer{
	Name:     "suggestconverge",
	Category: CategorySuggest,
	Tier:     TierSuggest,
	Doc:      "suggest: convergence loops whose condition compares an iteration-carried delta to a threshold",
	run:      func(p *Pass) { reportSuggestions(p, "suggestconverge") },
}

var analyzerSuggestScan = &Analyzer{
	Name:     "suggestscan",
	Category: CategorySuggest,
	Tier:     TierSuggest,
	Doc:      "suggest: early-exit scan loops (break on an accumulated-value comparison), the search/top-N shape",
	run:      func(p *Pass) { reportSuggestions(p, "suggestscan") },
}

// Suggestion is one approximable-site candidate: a loop matching one of
// the shapes above, with the static features the ranker and the
// scaffold generator need.
type Suggestion struct {
	// Diag carries the position, the check name (suggestreduce,
	// suggestconverge, or suggestscan), and the rendered message.
	Diag Diagnostic
	// Kind is the human name of the shape: "reduction", "convergence",
	// or "early-exit".
	Kind string
	// Func is the enclosing function (or method) name.
	Func string
	// Induction is the loop induction variable, "" when the loop has
	// none (range loops with discarded key, condition-only loops).
	Induction string
	// Accum names the accumulator / iteration-carried variable the
	// shape matched on; AccumType is its (element) type, rendered
	// relative to the package.
	Accum     string
	AccumType string
	// Depth is the loop nesting depth inside its function (1 = top
	// level); BodyStmts counts the statements of the body, nested
	// included; Calls counts the returning calls in the body (calls
	// classified no-return by the CFG layer are excluded — panic paths
	// are not work).
	Depth     int
	BodyStmts int
	Calls     int
	// Score is the rank: higher means larger expected payoff. By default
	// it is the static 4^(depth−1) nesting proxy; a -cost-profile match
	// replaces it with the measured ns/op (and sets Measured).
	Score float64
	// Measured reports that Score is a measured cost from a profile
	// rather than the static proxy.
	Measured bool
	// FnCallee names a dominant pure float64->float64 call site in the
	// body, if one exists — the shape green.Func substitutes directly.
	FnCallee string

	pos token.Pos
}

// reportSuggestions is the Analyzer.run adapter: it reports the
// candidates of one check as plain diagnostics, which is how the
// suggestion family participates in Lint/LintAll (fixture tests, or an
// explicit -checks selection).
func reportSuggestions(p *Pass, check string) {
	for _, s := range suggestCandidates(p) {
		if s.Diag.Check == check {
			p.reportf(s.pos, "%s", s.Diag.Message)
		}
	}
}

// Suggest runs the suggestion-mode analyzers over a loaded package and
// returns the ranked candidates (best first). names selects a subset of
// the suggest checks; empty means all of them. Suppression directives
// (//greenlint:ignore <check> <reason>) mute candidates exactly like
// contract findings.
func Suggest(pkg *Package, names []string) ([]Suggestion, error) {
	sel := map[string]bool{}
	if len(names) == 0 {
		for _, a := range AnalyzersByCategory(CategorySuggest) {
			sel[a.Name] = true
		}
	} else {
		for _, n := range names {
			a := ByName(n)
			if a == nil || a.Category != CategorySuggest {
				return nil, fmt.Errorf("lint: %q is not a suggestion check", n)
			}
			sel[n] = true
		}
	}
	var sink []Diagnostic
	pass := &Pass{
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
		check: "suggest",
		diags: &sink,
	}
	idx := collectSuppressions(pkg)
	var out []Suggestion
	for _, s := range suggestCandidates(pass) {
		if !sel[s.Diag.Check] {
			continue
		}
		if _, suppressed := idx.match(s.Diag); suppressed {
			continue
		}
		out = append(out, s)
	}
	SortSuggestions(out)
	return out, nil
}

// SortSuggestions orders candidates by descending score, breaking ties
// by file, line, then check name — a total order, so output is
// deterministic across runs and across parallel package loads.
func SortSuggestions(sugs []Suggestion) {
	sort.Slice(sugs, func(i, j int) bool {
		a, b := sugs[i], sugs[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Diag.Pos.Filename != b.Diag.Pos.Filename {
			return a.Diag.Pos.Filename < b.Diag.Pos.Filename
		}
		if a.Diag.Pos.Line != b.Diag.Pos.Line {
			return a.Diag.Pos.Line < b.Diag.Pos.Line
		}
		return a.Diag.Check < b.Diag.Check
	})
}

// suggestCandidates walks every top-level function of the package and
// matches its loops against the three shapes.
func suggestCandidates(p *Pass) []Suggestion {
	var out []Suggestion
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, suggestInFunc(p, fd.Name.Name, fd.Body)...)
		}
	}
	return out
}

// loopSite is one for/range statement with its nesting depth.
type loopSite struct {
	stmt  ast.Stmt
	depth int
}

// suggestInFunc builds the function's CFG once and matches every loop
// in it (loops inside function literals included — they execute in this
// frame's dynamic extent and their cost bills to this function).
func suggestInFunc(p *Pass, fnName string, body *ast.BlockStmt) []Suggestion {
	var loops []loopSite
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth := 1
			for _, a := range stack {
				switch a.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					depth++
				}
			}
			loops = append(loops, loopSite{stmt: n.(ast.Stmt), depth: depth})
		}
	})
	if len(loops) == 0 {
		return nil
	}
	g := buildCFG(body, p.Info)
	var out []Suggestion
	for _, ls := range loops {
		out = append(out, matchLoop(p, g, fnName, ls)...)
	}
	return out
}

// matchLoop runs the three shape matchers over one loop.
func matchLoop(p *Pass, g *CFG, fnName string, ls loopSite) []Suggestion {
	var loopBody *ast.BlockStmt
	switch s := ls.stmt.(type) {
	case *ast.ForStmt:
		// A loop already guarded by exec.Continue (or driven in
		// exec.ContinueN blocks) is greened: discovery is done,
		// calibration owns it now.
		if stopLawGuards(p.Info, s, "LoopExec") {
			return nil
		}
		loopBody = s.Body
	case *ast.RangeStmt:
		loopBody = s.Body
	}
	if loopBody == nil {
		return nil
	}

	accums := collectAccums(p, ls.stmt, loopBody)
	base := Suggestion{
		Func:      fnName,
		Induction: inductionVar(p, ls.stmt),
		Depth:     ls.depth,
		BodyStmts: countStmts(loopBody),
		Calls:     countCalls(p.Info, loopBody),
		FnCallee:  dominantFnCallee(p.Info, p.Pkg, loopBody),
		pos:       ls.stmt.Pos(),
	}

	var out []Suggestion
	if s, ok := matchReduction(p, base, loopBody, accums); ok {
		out = append(out, s)
	}
	if fs, isFor := ls.stmt.(*ast.ForStmt); isFor {
		if s, ok := matchConvergence(p, base, fs, accums); ok {
			out = append(out, s)
		}
	}
	if s, ok := matchEarlyExit(p, g, base, ls.stmt, accums); ok {
		out = append(out, s)
	}
	for i := range out {
		out[i].Score = scoreSuggestion(&out[i])
		out[i].Diag = Diagnostic{
			Pos:     p.Fset.Position(out[i].pos),
			Check:   out[i].Diag.Check,
			Message: renderSuggestion(&out[i]),
		}
	}
	return out
}

// accumOps summarizes every write to one variable inside a loop body.
type accumOps struct {
	obj     types.Object // the variable (or the slice/array/field behind an index)
	name    string       // display name; indexed targets render as name[…]
	indexed bool
	elem    types.Type // accumulated value type (element type when indexed)
	adds    int        // += / ++ / x = x + e
	subs    int        // -= / -- / x = x - e
	others  int        // plain assignment or non-additive compound op
	// nonConst is true when at least one additive update folds no
	// constant: the increment is computed, which is what separates a
	// real reduction from a plain counter.
	nonConst bool
	first    token.Pos
}

// collectAccums indexes every write inside body by target variable. It
// tracks plain identifiers, indexed identifiers (accum[i] += x), and
// indexed field selectors (r.accum[i] += x) — the forms the repo's own
// kernels use. The loop's induction variables are excluded.
func collectAccums(p *Pass, loop ast.Stmt, body *ast.BlockStmt) []*accumOps {
	skip := inductionObjs(p, loop)
	byObj := map[types.Object]*accumOps{}
	var order []*accumOps
	record := func(lhs ast.Expr, kind token.Token, rhs ast.Expr) {
		obj, name, indexed, elem := accumTarget(p.Info, lhs)
		if obj == nil || skip[obj] {
			return
		}
		a := byObj[obj]
		if a == nil {
			a = &accumOps{obj: obj, name: name, indexed: indexed, elem: elem, first: lhs.Pos()}
			byObj[obj] = a
			order = append(order, a)
		}
		switch kind {
		case token.ADD_ASSIGN, token.INC:
			a.adds++
		case token.SUB_ASSIGN, token.DEC:
			a.subs++
		case token.ASSIGN:
			// x = x + e / x = x - e count as accumulation; anything else
			// is a plain overwrite.
			if op, inc, ok := selfUpdate(p.Info, lhs, rhs); ok {
				if op == token.ADD {
					a.adds++
				} else {
					a.subs++
				}
				rhs = inc
			} else {
				a.others++
				return
			}
		default:
			a.others++
			return
		}
		if rhs != nil && !isConstExpr(p.Info, rhs) {
			a.nonConst = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				tok := n.Tok
				if tok == token.DEFINE {
					continue // fresh per-iteration variable, not a carrier
				}
				record(lhs, tok, rhs)
			}
		case *ast.IncDecStmt:
			record(n.X, n.Tok, nil)
		}
		return true
	})
	return order
}

// accumTarget resolves an assignment target to (object, display name,
// indexed?, value type). Supported: plain identifier, ident[index],
// sel.field[index].
func accumTarget(info *types.Info, lhs ast.Expr) (types.Object, string, bool, types.Type) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return v, e.Name, false, v.Type()
		}
	case *ast.IndexExpr:
		var id *ast.Ident
		switch x := ast.Unparen(e.X).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return nil, "", false, nil
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return nil, "", false, nil
		}
		return v, id.Name + "[…]", true, elemTypeOf(v.Type())
	}
	return nil, "", false, nil
}

// elemTypeOf returns the element type of a slice/array/map/pointer-to-
// array, or nil.
func elemTypeOf(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			return arr.Elem()
		}
	}
	return nil
}

// selfUpdate recognizes x = x + e and x = x - e (x first — subtraction
// does not commute, and `x = e - x` is an alternating flip, not a
// monotone update). Returns the operator and the increment expression.
func selfUpdate(info *types.Info, lhs, rhs ast.Expr) (token.Token, ast.Expr, bool) {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
		return 0, nil, false
	}
	lobj, _, _, _ := accumTarget(info, lhs)
	if lobj == nil {
		return 0, nil, false
	}
	if xobj, _, _, _ := accumTarget(info, bin.X); xobj == lobj {
		return bin.Op, bin.Y, true
	}
	if bin.Op == token.ADD {
		if yobj, _, _, _ := accumTarget(info, bin.Y); yobj == lobj {
			return bin.Op, bin.X, true
		}
	}
	return 0, nil, false
}

// isConstExpr reports whether the type checker folded e to a constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return true
	}
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// inductionObjs collects the induction variables of a loop: idents
// assigned in a for statement's init/post, and the key/value of a range.
func inductionObjs(p *Pass, loop ast.Stmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	addIdent := func(e ast.Expr) {
		if e == nil {
			return
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				objs[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				objs[obj] = true
			}
		}
	}
	switch s := loop.(type) {
	case *ast.ForStmt:
		for _, st := range []ast.Stmt{s.Init, s.Post} {
			switch st := st.(type) {
			case *ast.AssignStmt:
				for _, l := range st.Lhs {
					addIdent(l)
				}
			case *ast.IncDecStmt:
				addIdent(st.X)
			}
		}
	case *ast.RangeStmt:
		addIdent(s.Key)
		addIdent(s.Value)
	}
	return objs
}

// inductionVar names the loop's induction variable for the scaffold.
func inductionVar(p *Pass, loop ast.Stmt) string {
	switch s := loop.(type) {
	case *ast.ForStmt:
		for _, st := range []ast.Stmt{s.Init, s.Post} {
			switch st := st.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) > 0 {
					if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
						return id.Name
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
					return id.Name
				}
			}
		}
	case *ast.RangeStmt:
		if id, ok := ast.Unparen(s.Key).(*ast.Ident); ok && id.Name != "_" {
			return id.Name
		}
	}
	return ""
}

// declaredOutside reports whether obj's declaration lies outside the
// span of body — an accumulator must survive the loop to carry state.
func declaredOutside(obj types.Object, body *ast.BlockStmt) bool {
	pos := obj.Pos()
	return !pos.IsValid() || pos < body.Pos() || pos > body.End()
}

// numericNonComplex reports whether t's underlying type is an integer or
// floating-point basic type (the types a LoopQoS stub can compare).
func numericNonComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0 && b.Info()&types.IsComplex == 0
}

// matchReduction finds monotone accumulators: every write is an
// accumulation, all in one direction, with at least one computed (non-
// constant) increment.
func matchReduction(p *Pass, base Suggestion, body *ast.BlockStmt, accums []*accumOps) (Suggestion, bool) {
	var hits []*accumOps
	for _, a := range accums {
		if a.others > 0 || !a.nonConst || !numericNonComplex(a.elem) {
			continue
		}
		if (a.adds > 0) == (a.subs > 0) { // both directions or no update
			continue
		}
		if !declaredOutside(a.obj, body) {
			continue
		}
		hits = append(hits, a)
	}
	if len(hits) == 0 {
		return Suggestion{}, false
	}
	s := base
	s.Diag.Check = "suggestreduce"
	s.Kind = "reduction"
	s.Accum = hits[0].name
	if len(hits) > 1 {
		var names []string
		for _, h := range hits {
			names = append(names, h.name)
		}
		s.Accum = strings.Join(names, ", ")
	}
	s.AccumType = typeStr(p, hits[0].elem)
	return s, true
}

// matchConvergence finds for conditions comparing an iteration-carried
// value against a threshold: one operand's variable is (re)assigned in
// the body with a computed value, the other is loop-invariant.
func matchConvergence(p *Pass, base Suggestion, fs *ast.ForStmt, accums []*accumOps) (Suggestion, bool) {
	bin, ok := ast.Unparen(fs.Cond).(*ast.BinaryExpr)
	if !ok {
		return Suggestion{}, false
	}
	switch bin.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return Suggestion{}, false
	}
	carried := func(e ast.Expr) *accumOps {
		var found *accumOps
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || found != nil {
				return true
			}
			obj := p.Info.Uses[id]
			for _, a := range accums {
				if a.obj == obj && a.obj != nil && !a.indexed && iterationCarried(a) {
					found = a
					return false
				}
			}
			return true
		})
		return found
	}
	x, y := carried(bin.X), carried(bin.Y)
	if (x == nil) == (y == nil) { // need exactly one carried side
		return Suggestion{}, false
	}
	a := x
	if a == nil {
		a = y
	}
	s := base
	s.Diag.Check = "suggestconverge"
	s.Kind = "convergence"
	s.Accum = a.name
	s.AccumType = typeStr(p, a.elem)
	return s, true
}

// iterationCarried reports whether a variable's loop-body updates make
// it a genuine iteration-carried value: any plain reassignment counts,
// and additive updates count only when computed — a constant-step
// counter (i++ and nothing else) is a counted loop, not a convergence
// test.
func iterationCarried(a *accumOps) bool {
	return a.others > 0 || ((a.adds > 0 || a.subs > 0) && a.nonConst)
}

// matchEarlyExit finds break/return exits guarded by a comparison on an
// accumulated value, using the CFG's loop landmarks: a condition block
// inside the loop whose taken edge leads to a block that jumps straight
// to the loop's done block (break) or the function exit (return).
func matchEarlyExit(p *Pass, g *CFG, base Suggestion, loop ast.Stmt, accums []*accumOps) (Suggestion, bool) {
	head, bodyB, done, ok := g.LoopBlocks(loop)
	if !ok {
		return Suggestion{}, false
	}
	members := loopMembers(g, head, bodyB, done)
	for _, b := range g.Blocks {
		if !members[b.Index] || b == head {
			continue
		}
		for _, t := range b.Succs {
			cond, _, isCond := g.CondEdge(b, t)
			if !isCond || t == done || !members[t.Index] {
				continue
			}
			exit := ""
			for _, ts := range t.Succs {
				if ts == done {
					exit = "break"
				} else if ts == g.Exit && containsReturn(t) {
					exit = "return"
				}
			}
			if exit == "" {
				continue
			}
			if a := guardAccum(p, cond, accums); a != nil {
				s := base
				s.Diag.Check = "suggestscan"
				s.Kind = "early-exit"
				s.Accum = a.name
				s.AccumType = typeStr(p, a.elem)
				return s, true
			}
		}
	}
	return Suggestion{}, false
}

// loopMembers returns the set of block indices reachable from the loop
// head without passing through done — the loop interior (plus any
// return-exit continuations, which is harmless for the membership test).
func loopMembers(g *CFG, head, body, done *Block) map[int]bool {
	members := map[int]bool{head.Index: true}
	stack := []*Block{head}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s == done || members[s.Index] {
				continue
			}
			members[s.Index] = true
			stack = append(stack, s)
		}
	}
	return members
}

// containsReturn reports whether the block holds a return statement.
func containsReturn(b *Block) bool {
	for _, n := range b.Nodes {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

// guardAccum matches an early-exit guard: a relational comparison with
// an accumulated (loop-written, computed) variable on one side.
func guardAccum(p *Pass, cond ast.Expr, accums []*accumOps) *accumOps {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch bin.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return nil
	}
	var found *accumOps
	ast.Inspect(bin, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found != nil {
			return true
		}
		obj := p.Info.Uses[id]
		for _, a := range accums {
			if a.obj == obj && a.obj != nil && iterationCarried(a) {
				found = a
				return false
			}
		}
		return true
	})
	return found
}

// countStmts counts the statements under body, nested blocks included —
// the "posting-loop body size" feature of the rank heuristic.
func countStmts(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd.(type) {
		case nil, *ast.BlockStmt:
			return true
		case ast.Stmt:
			n++
		}
		return true
	})
	return n
}

// countCalls counts the returning calls in body. Conversions and calls
// the CFG layer classifies as no-return (panic, os.Exit, log.Fatal) are
// excluded: neither is work an approximation can save.
func countCalls(info *types.Info, body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if info != nil {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if isNoReturnCall(info, call) {
				return true
			}
		}
		n++
		return true
	})
	return n
}

// dominantFnCallee looks for a pure-function call site of the
// green.Fn shape — func(float64) float64 — in the loop body. When one
// exists, the scaffold also proposes a green.Func wrapper: substituting
// graded versions of the callee approximates the loop without touching
// its control flow (the DFT's trig kernel pattern).
func dominantFnCallee(info *types.Info, pkg *types.Package, body *ast.BlockStmt) string {
	name := ""
	ast.Inspect(body, func(nd ast.Node) bool {
		if name != "" {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
			return true
		}
		if !isFloat64(sig.Params().At(0).Type()) || !isFloat64(sig.Results().At(0).Type()) {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg() != pkg {
			name = fn.Pkg().Name() + "." + fn.Name()
		} else {
			name = fn.Name()
		}
		return false
	})
	return name
}

func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// typeStr renders a type relative to the package under analysis (its
// own names print unqualified, so scaffolds in the same package compile).
func typeStr(p *Pass, t types.Type) string {
	if t == nil {
		return "float64"
	}
	return types.TypeString(t, types.RelativeTo(p.Pkg))
}

// renderSuggestion builds the diagnostic message.
func renderSuggestion(s *Suggestion) string {
	var what string
	switch s.Kind {
	case "reduction":
		what = fmt.Sprintf("approximable reduction loop in %s: accumulator %s (%s) only accumulates across iterations — a green.Loop early-termination candidate",
			s.Func, s.Accum, s.AccumType)
	case "convergence":
		what = fmt.Sprintf("approximable convergence loop in %s: condition compares iteration-carried %s (%s) against a threshold — a green.Loop adaptive-termination candidate",
			s.Func, s.Accum, s.AccumType)
	case "early-exit":
		what = fmt.Sprintf("approximable early-exit scan loop in %s: exit guarded by a comparison on accumulated %s (%s) — the search/top-N green.Loop shape",
			s.Func, s.Accum, s.AccumType)
	}
	extra := ""
	if s.FnCallee != "" {
		extra = fmt.Sprintf("; dominant pure call %s also fits green.Func substitution", s.FnCallee)
	}
	if s.Measured {
		return fmt.Sprintf("%s (measured %.0f ns/op: depth %d, %d stmts, %d calls)%s",
			what, s.Score, s.Depth, s.BodyStmts, s.Calls, extra)
	}
	return fmt.Sprintf("%s (score %.1f: depth %d, %d stmts, %d calls)%s",
		what, s.Score, s.Depth, s.BodyStmts, s.Calls, extra)
}

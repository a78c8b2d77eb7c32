package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Approximation-flow ("taint") analysis: the interprocedural tier.
//
// Green's programming model assumes the programmer knows which values
// are allowed to be approximate. Nothing enforces that boundary: a
// value computed under a Loop/Func/Func2 controller can silently flow
// into the controller's own *precise* plane — calibration inputs,
// persisted snapshots, SLA configuration, breaker steering — or into
// error construction, turning a QoS-degraded result into what looks
// like ground truth. This file tracks those flows statically.
//
// Sources (approximate values):
//
//   - results of Func.Call / Func2.Call;
//   - output slices of Func.CallN / Func2.CallN;
//   - every variable mutated inside a loop whose condition calls
//     LoopExec.Continue or LoopBatch.Continue, or whose init/post asks
//     ContinueN for its next block — the state accumulated between
//     Begin and Finish is exactly the state the controller may
//     truncate.
//
// Sinks (precise-only contexts, check "taintsink"):
//
//   - calibration inputs (AddRun, AddRunFeat, AddSample, AddSampleFeat);
//   - persisted controller state (Restore, RestoreStateJSON);
//   - SLA/adaptive parameters (SetAdaptive, SetLevel);
//   - application QoS observations (ObserveAppQoS);
//   - breaker/steering decisions: a steering method called under an
//     if-condition derived from an approximate value;
//   - error construction (errors.New, fmt.Errorf).
//
// Escapes (check "taintescape"): an approximate value sent on a
// channel, passed to a goroutine, or captured by a go'd closure leaves
// the frame the analysis can see; the flow is reported at the boundary.
//
// The engine is flow-sensitive within a function (a forward dataflow
// over the CFG layer, per-variable taint = parameter bitset + source
// set) and bottom-up across functions: per-function summaries
// (summary.go) computed in callee-first SCC order (callgraph.go), so a
// two-hop source→helper→sink chain reports at the real sink with the
// full path attached (Diagnostic.Flow, SARIF codeFlows).
//
// Soundness caveats, deliberate and documented (DESIGN.md §7):
// indirect calls (function values, interfaces, closures) propagate
// argument taint to results but carry no sink knowledge; function
// literal bodies are opaque; globals do not carry taint across
// functions; channel receives return untainted values (the matching
// send is where the escape is reported). Calls into the Green control
// plane itself (green, internal/core, internal/model) return precise
// values unless they are sources — the framework separates the precise
// control system from the approximate components it controls.
//
// The only sanctioned approximate→precise crossing is an explicit
// EnerJ-style endorsement:
//
//	//greenlint:endorse <reason>
//
// on the sink line or the line above. It suppresses taintsink and
// taintescape findings at that line through the same machinery as
// //greenlint:ignore (the reason is mandatory; a reasonless directive
// is inert). The taintendorse check audits the directives themselves:
// endorsements with no matching finding are stale and flagged, so an
// endorsement cannot outlive the flow it justified.

var analyzerTaintSink = &Analyzer{
	Name: "taintsink",
	Tier: TierInterproc,
	Doc:  "approximate values (Func.Call results, exec.Continue-guarded loop state) must not reach precise-only sinks (calibration, Restore, SLA config, breaker steering, error construction) without //greenlint:endorse",
	run:  runTaintSink,
}

var analyzerTaintEndorse = &Analyzer{
	Name: "taintendorse",
	Tier: TierInterproc,
	Doc:  "every //greenlint:endorse must carry a reason and match a taintsink/taintescape finding on its line or the next; stale or reasonless endorsements are flagged",
	run:  runTaintEndorse,
}

var analyzerTaintEscape = &Analyzer{
	Name: "taintescape",
	Tier: TierInterproc,
	Doc:  "approximate values must not cross goroutine/channel boundaries, where taint tracking ends; keep them frame-local or endorse the crossing",
	run:  runTaintEscape,
}

func runTaintSink(p *Pass)   { reportTaint(p, "taintsink") }
func runTaintEscape(p *Pass) { reportTaint(p, "taintescape") }

func reportTaint(p *Pass, check string) {
	for _, f := range taintForPass(p).findings {
		if f.check != check {
			continue
		}
		*p.diags = append(*p.diags, Diagnostic{
			Pos:     f.pos,
			Check:   check,
			Message: f.msg,
			Flow:    f.flow,
		})
	}
}

// runTaintEndorse audits the endorsement directives: a directive
// without a reason is inert (the findings it meant to sanction stay
// active), and a directive whose line no longer carries a taint finding
// is stale — the flow it justified is gone, so the justification must
// go too or be re-reviewed.
func runTaintEndorse(p *Pass) {
	res := taintForPass(p)
	at := map[string]map[int]bool{}
	for _, f := range res.findings {
		lines := at[f.pos.Filename]
		if lines == nil {
			lines = map[int]bool{}
			at[f.pos.Filename] = lines
		}
		lines[f.pos.Line] = true
	}
	for _, e := range collectEndorsements(p.Fset, p.Files) {
		if e.reason == "" {
			p.reportf(e.pos, "//greenlint:endorse without a reason is inert; justify the approximate→precise crossing or remove the directive")
			continue
		}
		lines := at[e.posn.Filename]
		if lines == nil || (!lines[e.posn.Line] && !lines[e.posn.Line+1]) {
			p.reportf(e.pos, "stale endorsement: no taintsink/taintescape finding on this line or the next; remove the directive or re-justify the flow it covers")
		}
	}
}

// endorsement is one parsed //greenlint:endorse directive.
type endorsement struct {
	pos    token.Pos
	posn   token.Position
	reason string
}

// collectEndorsements parses every endorse directive, including
// reasonless (inert) ones, which taintendorse flags.
func collectEndorsements(fset *token.FileSet, files []*ast.File) []endorsement {
	var out []endorsement
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, endorsePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				out = append(out, endorsement{
					pos:    c.Pos(),
					posn:   fset.Position(c.Pos()),
					reason: endorseReason(rest),
				})
			}
		}
	}
	return out
}

// taintFinding is one computed source→sink flow, shared by the three
// analyzers through the per-package cache.
type taintFinding struct {
	check string
	pos   token.Position
	msg   string
	flow  []FlowStep
}

type taintResult struct {
	findings []taintFinding
}

// The three taint analyzers run back-to-back over the same package, and
// the driver lints packages from concurrent workers; one guarded cache
// keyed on the type-checked package identity makes the whole family
// cost a single analysis per package.
var (
	taintMu    sync.Mutex
	taintCache = map[*types.Package]*taintResult{}
)

func taintForPass(p *Pass) *taintResult {
	taintMu.Lock()
	defer taintMu.Unlock()
	if r, ok := taintCache[p.Pkg]; ok {
		return r
	}
	r := computeTaint(p)
	if len(taintCache) > 32 {
		// Bounded memory for long-lived processes (the fuzzer loads a
		// fresh package per input); recomputation is cheap.
		taintCache = map[*types.Package]*taintResult{}
	}
	taintCache[p.Pkg] = r
	return r
}

// computeTaint runs the whole-package analysis: call graph, bottom-up
// summaries in SCC order (recursive components iterate to a capped
// fixpoint), then a reporting pass over every function.
func computeTaint(p *Pass) *taintResult {
	res := &taintResult{}
	if p.Info == nil || p.Info.Uses == nil || p.Info.Defs == nil {
		return res
	}
	ta := &taintAnalysis{
		pass:      p,
		summaries: map[*types.Func]*funcSummary{},
		atoms:     map[ast.Node]*taintSource{},
		derived:   map[deriveKey]*taintSource{},
		seen:      map[string]bool{},
	}
	cg := buildCallGraph(p.Files, p.Info)
	for _, scc := range cg.sccOrder() {
		for iter := 0; ; iter++ {
			changed := false
			for _, n := range scc {
				sum := ta.analyzeFunc(n, nil)
				if old := ta.summaries[n.fn]; old == nil || old.key() != sum.key() {
					changed = true
				}
				ta.summaries[n.fn] = sum
			}
			if !changed || iter >= 3 || (len(scc) == 1 && !selfRecursive(scc[0])) {
				break
			}
		}
	}
	for _, n := range cg.order {
		ta.analyzeFunc(n, res)
	}
	return res
}

func selfRecursive(n *cgNode) bool {
	for _, c := range n.callees {
		if c == n {
			return true
		}
	}
	return false
}

// taintAnalysis is the package-wide analysis state.
type taintAnalysis struct {
	pass      *Pass
	summaries map[*types.Func]*funcSummary
	// atoms memoizes source atoms per syntactic site; derived memoizes
	// call-site re-exports of callee-internal sources. Stable pointers
	// keep the dataflow monotone and the ordinals deterministic.
	atoms   map[ast.Node]*taintSource
	derived map[deriveKey]*taintSource
	seen    map[string]bool // finding dedup keys
	nextOrd int
}

type deriveKey struct {
	site ast.Node
	src  *taintSource
}

func (ta *taintAnalysis) sourceAtom(site ast.Node, what string, posn token.Position) *taintSource {
	if s, ok := ta.atoms[site]; ok {
		return s
	}
	s := &taintSource{
		ord:   ta.nextOrd,
		what:  what,
		steps: []FlowStep{{Pos: posn, Note: "approximate source: " + what}},
	}
	ta.nextOrd++
	ta.atoms[site] = s
	return s
}

func (ta *taintAnalysis) deriveSource(src *taintSource, call *ast.CallExpr, calleeName string, posn token.Position) *taintSource {
	k := deriveKey{call, src}
	if s, ok := ta.derived[k]; ok {
		return s
	}
	steps := make([]FlowStep, 0, len(src.steps)+1)
	steps = append(steps, src.steps...)
	steps = append(steps, FlowStep{Pos: posn, Note: "approximate value returned by " + calleeName})
	s := &taintSource{ord: ta.nextOrd, what: src.what, steps: capSteps(steps)}
	ta.nextOrd++
	ta.derived[k] = s
	return s
}

// state maps each variable to its abstract taint at a program point.
type state map[types.Object]tv

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto unions src into dst, reporting whether dst changed.
func joinInto(dst, src state) bool {
	changed := false
	for k, v := range src {
		u := dst[k].union(v)
		if u.params != dst[k].params || !eqSrcs(u.srcs, dst[k].srcs) {
			dst[k] = u
			changed = true
		}
	}
	return changed
}

// analyzeFunc analyzes one declaration. With res == nil only the
// summary is computed; with res non-nil findings are reported too.
func (ta *taintAnalysis) analyzeFunc(n *cgNode, res *taintResult) *funcSummary {
	fc := &funcTaint{
		ta:   ta,
		info: ta.pass.Info,
		fset: ta.pass.Fset,
		res:  res,
		name: n.fn.Name(),
	}
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return newFuncSummary(fc.name, 0, 0)
	}
	if r := sig.Recv(); r != nil {
		fc.params = append(fc.params, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		fc.params = append(fc.params, sig.Params().At(i))
	}
	if len(fc.params) > maxTrackedParams {
		fc.params = fc.params[:maxTrackedParams]
	}
	fc.nparams = len(fc.params)
	for _, p := range fc.params {
		fc.paramPos = append(fc.paramPos, ta.pass.Fset.Position(p.Pos()))
		fc.paramName = append(fc.paramName, p.Name())
	}
	nres := sig.Results().Len()
	for i := 0; i < nres; i++ {
		if v := sig.Results().At(i); v.Name() != "" {
			fc.resultObjs = append(fc.resultObjs, v)
		} else {
			fc.resultObjs = append(fc.resultObjs, nil)
		}
	}
	fc.sum = newFuncSummary(fc.name, fc.nparams, nres)
	fc.prepass(n.decl.Body)

	g := buildCFG(n.decl.Body, fc.info)
	entry := state{}
	for i, p := range fc.params {
		entry[p] = tv{params: 1 << uint(i)}
	}
	in := fc.solve(g, entry)

	// Replay each block's fixed-point in-state through its nodes,
	// recording summary facts (returns, parameter-reachable sinks) and,
	// in report mode, findings.
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		st := in[b.Index].clone()
		for _, nd := range b.Nodes {
			fc.checkNode(st, nd)
			fc.transferState(st, nd)
		}
	}
	return fc.sum
}

// funcTaint is the per-function analysis context.
type funcTaint struct {
	ta   *taintAnalysis
	info *types.Info
	fset *token.FileSet
	res  *taintResult
	name string

	params     []*types.Var
	nparams    int
	paramPos   []token.Position
	paramName  []string
	resultObjs []types.Object

	// approxWrites maps write statements inside approximate
	// (Continue-guarded) loops to the loop's source atom.
	approxWrites map[ast.Node]*taintSource
	// condIf maps each if condition to its statement, for the
	// control-dependence (steering) sink.
	condIf map[ast.Expr]*ast.IfStmt

	sum *funcSummary
}

// prepass walks the body once (function literals excluded — their
// statements never run on this frame's CFG) indexing if conditions and
// the write statements of approximate loops.
func (fc *funcTaint) prepass(body *ast.BlockStmt) {
	fc.approxWrites = map[ast.Node]*taintSource{}
	fc.condIf = map[ast.Expr]*ast.IfStmt{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			fc.condIf[n.Cond] = n
		case *ast.ForStmt:
			if stopLawGuards(fc.info, n, "LoopExec", "LoopBatch") {
				atom := fc.ta.sourceAtom(n, "state mutated under an approximate exec.Continue-guarded loop", fc.fset.Position(n.Pos()))
				fc.markWrites(n.Body, atom)
				if n.Post != nil {
					fc.markWrites(n.Post, atom)
				}
			}
		}
		return true
	})
}

func (fc *funcTaint) markWrites(root ast.Node, atom *taintSource) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.RangeStmt:
			if _, seen := fc.approxWrites[n]; !seen {
				fc.approxWrites[n] = atom
			}
		}
		return true
	})
}

// solve runs the forward dataflow to a fixed point and returns the
// entry state of every block (nil = unreachable).
func (fc *funcTaint) solve(g *CFG, entry state) []state {
	n := len(g.Blocks)
	in := make([]state, n)
	in[g.Entry.Index] = entry
	work := []*Block{g.Entry}
	inWork := make([]bool, n)
	inWork[g.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		out := in[b.Index].clone()
		for _, nd := range b.Nodes {
			fc.transferState(out, nd)
		}
		for _, s := range b.Succs {
			changed := false
			if in[s.Index] == nil {
				in[s.Index] = out.clone()
				changed = true
			} else {
				changed = joinInto(in[s.Index], out)
			}
			if changed && !inWork[s.Index] {
				work = append(work, s)
				inWork[s.Index] = true
			}
		}
	}
	return in
}

// nodeRoots limits AST scanning of a CFG node to the parts that execute
// there: a range head re-executes only its key/value/expression, not
// the body (which has its own blocks).
func nodeRoots(n ast.Node) []ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		var roots []ast.Node
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				roots = append(roots, e)
			}
		}
		return roots
	}
	return []ast.Node{n}
}

// transferState applies one CFG node's effect on the abstract state.
func (fc *funcTaint) transferState(st state, n ast.Node) {
	fc.callMutations(st, n)
	switch n := n.(type) {
	case *ast.AssignStmt:
		fc.assign(st, n)
	case *ast.IncDecStmt:
		if atom := fc.approxWrites[n]; atom != nil {
			fc.weakSet(st, n.X, tv{}.withSrc(atom))
		}
	case *ast.DeclStmt:
		fc.declStmt(st, n)
	case *ast.RangeStmt:
		fc.rangeHead(st, n)
	}
}

// callMutations applies output-argument effects: Func.CallN(xs, ys)
// writes approximate results into ys, Func2.CallN(xs, ys, zs) into zs.
func (fc *funcTaint) callMutations(st state, n ast.Node) {
	for _, root := range nodeRoots(n) {
		ast.Inspect(root, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fc.info, call)
			outArg, what := -1, ""
			switch {
			case isMethod(callee, corePath, "Func", "CallN"):
				outArg, what = 1, "approximate Func.CallN output"
			case isMethod(callee, corePath, "Func2", "CallN"):
				outArg, what = 2, "approximate Func2.CallN output"
			}
			if outArg >= 0 && outArg < len(call.Args) {
				atom := fc.ta.sourceAtom(call, what, fc.fset.Position(call.Pos()))
				fc.weakSet(st, call.Args[outArg], tv{}.withSrc(atom))
			}
			return true
		})
	}
}

func (fc *funcTaint) assign(st state, a *ast.AssignStmt) {
	ts := make([]tv, len(a.Lhs))
	switch {
	case len(a.Rhs) == len(a.Lhs):
		for i, r := range a.Rhs {
			ts[i] = fc.exprTaint(st, r)
		}
	case len(a.Rhs) == 1:
		t := fc.exprTaint(st, a.Rhs[0])
		for i := range ts {
			ts[i] = t
		}
	}
	atom := fc.approxWrites[ast.Node(a)]
	for i, l := range a.Lhs {
		t := ts[i]
		if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
			// Compound update (+=, *=, ...): the old value flows in.
			t = t.union(fc.exprTaint(st, l))
		}
		if atom != nil {
			t = t.withSrc(atom)
		}
		obj, strong := fc.lhsRoot(l)
		if obj == nil {
			continue
		}
		if strong {
			st[obj] = t
		} else {
			st[obj] = st[obj].union(t)
		}
	}
}

func (fc *funcTaint) declStmt(st state, d *ast.DeclStmt) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		for i, name := range vs.Names {
			var t tv
			if len(vs.Values) == len(vs.Names) {
				t = fc.exprTaint(st, vs.Values[i])
			} else {
				t = fc.exprTaint(st, vs.Values[0])
			}
			if obj := fc.objOf(name); obj != nil {
				st[obj] = t
			}
		}
	}
}

func (fc *funcTaint) rangeHead(st state, r *ast.RangeStmt) {
	t := fc.exprTaint(st, r.X)
	if atom := fc.approxWrites[ast.Node(r)]; atom != nil {
		t = t.withSrc(atom)
	}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if e == nil {
			continue
		}
		obj, strong := fc.lhsRoot(e)
		if obj == nil {
			continue
		}
		if strong {
			st[obj] = t
		} else {
			st[obj] = st[obj].union(t)
		}
	}
}

func (fc *funcTaint) objOf(id *ast.Ident) types.Object {
	if obj := fc.info.Uses[id]; obj != nil {
		return obj
	}
	return fc.info.Defs[id]
}

// lhsRoot resolves an assignment target to the object that carries its
// taint: a plain identifier gets a strong (replacing) update; writes
// through an index, field, or pointer weakly taint the root object.
func (fc *funcTaint) lhsRoot(e ast.Expr) (types.Object, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := fc.objOf(e)
		if _, isPkg := obj.(*types.PkgName); isPkg {
			return nil, false
		}
		return obj, true
	case *ast.IndexExpr:
		obj, _ := fc.lhsRoot(e.X)
		return obj, false
	case *ast.StarExpr:
		obj, _ := fc.lhsRoot(e.X)
		return obj, false
	case *ast.SelectorExpr:
		if obj, _ := fc.lhsRoot(e.X); obj != nil {
			return obj, false
		}
		return fc.objOf(e.Sel), false
	}
	return nil, false
}

// weakSet unions t into the root object behind e.
func (fc *funcTaint) weakSet(st state, e ast.Expr, t tv) {
	if obj, _ := fc.lhsRoot(e); obj != nil {
		st[obj] = st[obj].union(t)
	}
}

// exprTaint computes the abstract taint of an expression.
func (fc *funcTaint) exprTaint(st state, e ast.Expr) tv {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fc.objOf(e); obj != nil {
			return st[obj]
		}
	case *ast.ParenExpr:
		return fc.exprTaint(st, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// Channel receive: the matching send is where the escape
			// was reported; the received value re-enters untracked.
			return tv{}
		}
		return fc.exprTaint(st, e.X)
	case *ast.StarExpr:
		return fc.exprTaint(st, e.X)
	case *ast.BinaryExpr:
		return fc.exprTaint(st, e.X).union(fc.exprTaint(st, e.Y))
	case *ast.CallExpr:
		return fc.callTaint(st, e)
	case *ast.SelectorExpr:
		t := fc.exprTaint(st, e.X)
		if obj := fc.objOf(e.Sel); obj != nil {
			t = t.union(st[obj])
		}
		return t
	case *ast.IndexExpr:
		return fc.exprTaint(st, e.X)
	case *ast.IndexListExpr:
		return fc.exprTaint(st, e.X)
	case *ast.SliceExpr:
		return fc.exprTaint(st, e.X)
	case *ast.TypeAssertExpr:
		return fc.exprTaint(st, e.X)
	case *ast.CompositeLit:
		var t tv
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.union(fc.exprTaint(st, el))
		}
		return t
	}
	return tv{}
}

// callTaint resolves the taint of a call's value: source calls mint an
// atom; in-package callees apply their summary; Green control-plane
// calls return precise values; everything else (indirect, external,
// builtins) conservatively passes argument taint through.
func (fc *funcTaint) callTaint(st state, call *ast.CallExpr) tv {
	if tav, ok := fc.info.Types[call.Fun]; ok && tav.IsType() {
		// Conversion T(x): taint passes through.
		if len(call.Args) == 1 {
			return fc.exprTaint(st, call.Args[0])
		}
		return tv{}
	}
	callee := calleeOf(fc.info, call)
	if src := fc.sourceCall(call, callee); src != nil {
		return tv{srcs: []*taintSource{src}}
	}
	if callee != nil {
		if sum := fc.ta.summaries[callee]; sum != nil {
			return fc.applySummary(st, call, callee, sum)
		}
		if precisePlane(callee) {
			return tv{}
		}
	}
	var t tv
	for _, a := range call.Args {
		t = t.union(fc.exprTaint(st, a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t = t.union(fc.exprTaint(st, sel.X))
	}
	return t
}

func (fc *funcTaint) sourceCall(call *ast.CallExpr, callee *types.Func) *taintSource {
	var what string
	switch {
	case isMethod(callee, corePath, "Func", "Call"):
		what = "approximate Func.Call result"
	case isMethod(callee, corePath, "Func2", "Call"):
		what = "approximate Func2.Call result"
	default:
		return nil
	}
	return fc.ta.sourceAtom(call, what, fc.fset.Position(call.Pos()))
}

// precisePlane reports whether fn belongs to the Green control plane
// (the green, internal/core, internal/model packages): its returns are
// precise by construction — the framework separates the precise control
// system from the approximate components it controls — so calls into it
// do not propagate argument taint. Sources are matched before this.
func precisePlane(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "green", corePath, modelPath:
		return true
	}
	return false
}

// applySummary maps a callee summary over the call site's arguments.
func (fc *funcTaint) applySummary(st state, call *ast.CallExpr, callee *types.Func, sum *funcSummary) tv {
	pa := fc.paramArgs(call, callee)
	posn := fc.fset.Position(call.Pos())
	var out tv
	for r := range sum.resultParams {
		mask := sum.resultParams[r]
		for p := 0; p < len(pa) && mask != 0; p++ {
			if mask&(1<<uint(p)) != 0 {
				for _, a := range pa[p] {
					out = out.union(fc.exprTaint(st, a))
				}
			}
		}
		for _, s := range sum.resultSources[r] {
			out = out.withSrc(fc.ta.deriveSource(s, call, sum.name, posn))
		}
	}
	return out
}

// paramArgs maps a call's argument expressions onto the callee's
// receiver-first parameter indices; variadic overflow folds onto the
// last parameter.
func (fc *funcTaint) paramArgs(call *ast.CallExpr, callee *types.Func) [][]ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	if n > maxTrackedParams {
		n = maxTrackedParams
	}
	if n == 0 {
		return nil
	}
	out := make([][]ast.Expr, n)
	i := 0
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out[0] = []ast.Expr{sel.X}
		}
		i = 1
	}
	for j, a := range call.Args {
		p := i + j
		if p >= n {
			p = n - 1
		}
		out[p] = append(out[p], a)
	}
	return out
}

// checkNode scans one CFG node (pre-transfer state) for sinks, escapes,
// returns, and steering conditions.
func (fc *funcTaint) checkNode(st state, n ast.Node) {
	for _, root := range nodeRoots(n) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				fc.checkCall(st, m)
			}
			return true
		})
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		fc.recordReturn(st, n)
	case *ast.SendStmt:
		fc.sinkHit(fc.exprTaint(st, n.Value), "taintescape", "a channel send", n.Pos(), nil)
	case *ast.GoStmt:
		fc.checkGo(st, n)
	case ast.Expr:
		if ifst, ok := fc.condIf[n]; ok {
			if t := fc.exprTaint(st, n); !t.zero() {
				fc.checkSteering(t, n, ifst)
			}
		}
	}
}

// checkCall matches one call against the sink table and, for in-package
// callees, re-exports the callee's parameter-reachable sinks.
func (fc *funcTaint) checkCall(st state, call *ast.CallExpr) {
	callee := calleeOf(fc.info, call)
	if callee == nil {
		return
	}
	if kind := sinkKind(callee); kind != "" {
		var t tv
		for _, a := range call.Args {
			t = t.union(fc.exprTaint(st, a))
		}
		fc.sinkHit(t, "taintsink", kind, call.Pos(), nil)
		return
	}
	if sum := fc.ta.summaries[callee]; sum != nil {
		fc.applyParamSinks(st, call, callee, sum)
	}
}

// sinkKind classifies a callee as a precise-only sink; "" otherwise.
func sinkKind(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if (path == "errors" && name == "New") || (path == "fmt" && name == "Errorf") {
			return "error construction"
		}
		return ""
	}
	switch path {
	case corePath:
		switch name {
		case "AddRun", "AddRunFeat", "AddSample", "AddSampleFeat":
			return "calibration input"
		case "Restore", "RestoreStateJSON":
			return "persisted controller state"
		case "SetAdaptive", "SetLevel":
			return "SLA/adaptive parameters"
		case "ObserveAppQoS":
			return "the application QoS observation"
		}
	case modelPath:
		if name == "AddSample" {
			return "calibration input"
		}
	}
	return ""
}

// steeringMethods are the controller methods whose invocation under an
// approximate condition is a control-dependence sink: the precise
// breaker/accuracy plane being steered by an approximate value.
var steeringMethods = map[string]bool{
	"DisableApprox":    true,
	"EnableApprox":     true,
	"IncreaseAccuracy": true,
	"DecreaseAccuracy": true,
	"SetLevel":         true,
	"SetAdaptive":      true,
}

func isSteeringCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != corePath || !steeringMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// checkSteering reports steering calls in the branches of an if whose
// condition derives from an approximate value.
func (fc *funcTaint) checkSteering(t tv, cond ast.Expr, ifst *ast.IfStmt) {
	mid := []FlowStep{{Pos: fc.fset.Position(cond.Pos()), Note: "approximate value decides this branch"}}
	scan := func(s ast.Stmt) {
		if s == nil {
			return
		}
		ast.Inspect(s, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && isSteeringCall(fc.info, call) {
				fc.sinkHit(t, "taintsink", "a breaker/steering decision", call.Pos(), mid)
			}
			return true
		})
	}
	scan(ifst.Body)
	scan(ifst.Else)
}

func (fc *funcTaint) checkGo(st state, g *ast.GoStmt) {
	var t tv
	for _, a := range g.Call.Args {
		t = t.union(fc.exprTaint(st, a))
	}
	fc.sinkHit(t, "taintescape", "a goroutine launch argument", g.Pos(), nil)
	if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		fc.sinkHit(fc.capturedTaint(st, fl), "taintescape", "a goroutine closure capture", g.Pos(), nil)
	}
}

// capturedTaint unions the taint of every outer-scope variable a go'd
// closure references.
func (fc *funcTaint) capturedTaint(st state, fl *ast.FuncLit) tv {
	var t tv
	ast.Inspect(fl.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fc.info.Uses[id]
		if obj == nil || !obj.Pos().IsValid() {
			return true
		}
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true // declared inside the closure
		}
		t = t.union(st[obj])
		return true
	})
	return t
}

func (fc *funcTaint) recordReturn(st state, r *ast.ReturnStmt) {
	nres := len(fc.sum.resultParams)
	if nres == 0 {
		return
	}
	if len(r.Results) == 0 {
		for i, obj := range fc.resultObjs {
			if obj != nil {
				fc.sum.addResult(i, st[obj])
			}
		}
		return
	}
	if len(r.Results) == nres {
		for i, e := range r.Results {
			fc.sum.addResult(i, fc.exprTaint(st, e))
		}
		return
	}
	// return f(): one call expression feeding every result.
	t := fc.exprTaint(st, r.Results[0])
	for i := 0; i < nres; i++ {
		fc.sum.addResult(i, t)
	}
}

// applyParamSinks turns tainted arguments into findings at the callee's
// (transitively reached) sinks, and re-exports parameter-carried flows
// into this function's own summary.
func (fc *funcTaint) applyParamSinks(st state, call *ast.CallExpr, callee *types.Func, sum *funcSummary) {
	pa := fc.paramArgs(call, callee)
	callPosn := fc.fset.Position(call.Pos())
	for p := 0; p < len(sum.paramSinks) && p < len(pa); p++ {
		reaches := sum.paramSinks[p]
		if len(reaches) == 0 || len(pa[p]) == 0 {
			continue
		}
		var t tv
		for _, a := range pa[p] {
			t = t.union(fc.exprTaint(st, a))
		}
		if t.zero() {
			continue
		}
		callStep := FlowStep{Pos: callPosn, Note: "passed to " + sum.name + ", whose parameter reaches the sink"}
		for _, r := range reaches {
			for _, s := range t.srcs {
				fc.emit(r.check, r.pos, r.kind, s.what, concatSteps(s.steps, []FlowStep{callStep}, r.steps))
			}
			for q := 0; q < fc.nparams; q++ {
				if t.params&(1<<uint(q)) != 0 {
					fc.sum.addParamSink(q, sinkReach{
						check: r.check,
						kind:  r.kind,
						pos:   r.pos,
						steps: concatSteps([]FlowStep{fc.paramStep(q), callStep}, r.steps),
					})
				}
			}
		}
	}
}

// sinkHit processes a tainted value arriving at a sink or escape site:
// sources become findings (report mode), parameter bits become summary
// entries for the callers.
func (fc *funcTaint) sinkHit(t tv, check, kind string, pos token.Pos, mid []FlowStep) {
	if t.zero() {
		return
	}
	posn := fc.fset.Position(pos)
	final := FlowStep{Pos: posn, Note: sinkLabel(check) + ": " + kind}
	for _, s := range t.srcs {
		fc.emit(check, posn, kind, s.what, concatSteps(s.steps, mid, []FlowStep{final}))
	}
	for p := 0; p < fc.nparams; p++ {
		if t.params&(1<<uint(p)) != 0 {
			fc.sum.addParamSink(p, sinkReach{
				check: check,
				kind:  kind,
				pos:   posn,
				steps: concatSteps([]FlowStep{fc.paramStep(p)}, mid, []FlowStep{final}),
			})
		}
	}
}

func (fc *funcTaint) paramStep(p int) FlowStep {
	return FlowStep{Pos: fc.paramPos[p], Note: "parameter " + fc.paramName[p] + " of " + fc.name}
}

func sinkLabel(check string) string {
	if check == "taintescape" {
		return "escape"
	}
	return "sink"
}

func concatSteps(parts ...[]FlowStep) []FlowStep {
	var out []FlowStep
	for _, p := range parts {
		out = append(out, p...)
	}
	return capSteps(out)
}

// emit records one finding (report mode only), deduplicated on
// (check, sink, kind, origin).
func (fc *funcTaint) emit(check string, posn token.Position, kind, what string, flow []FlowStep) {
	if fc.res == nil || len(flow) == 0 {
		return
	}
	origin := flow[0].Pos
	key := fmt.Sprintf("%s|%s:%d:%d|%s|%s:%d", check, posn.Filename, posn.Line, posn.Column, kind, origin.Filename, origin.Line)
	if fc.ta.seen[key] {
		return
	}
	fc.ta.seen[key] = true
	var msg string
	if check == "taintescape" {
		msg = fmt.Sprintf("approximate value (%s) escapes via %s; taint tracking ends at the frame boundary — keep it local or add //greenlint:endorse <reason>", what, kind)
	} else {
		msg = fmt.Sprintf("approximate value (%s) flows into %s; only an explicit //greenlint:endorse <reason> may cross approximate→precise", what, kind)
	}
	fc.res.findings = append(fc.res.findings, taintFinding{check: check, pos: posn, msg: msg, flow: flow})
}

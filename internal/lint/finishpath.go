package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// finishpath is the path-sensitive upgrade of beginfinish, built on the
// CFG layer. beginfinish asks "does a Finish call exist anywhere in the
// function?" — which accepts
//
//	exec, err := loop.Begin(q)
//	if err != nil { return err }
//	for i = 0; exec.Continue(i); i++ {
//		if tooSlow() { return ErrTimeout }   // leaks the handle!
//	}
//	exec.Finish(i)
//
// because a Finish *is* present, just not on the early-return path. With
// a pooled handle that leak also strands the pool entry and, worse, skips
// the monitored-execution bookkeeping that keeps the SLA honest.
//
// finishpath runs a forward may-analysis per handle over the function's
// CFG. The abstract state is the set of possible handle conditions at a
// program point:
//
//	dead — not begun, or invalidated by the Begin error path
//	U    — live, not finished
//	UD   — live, a deferred Finish is armed
//	F    — finished
//	FD   — finished and a deferred Finish is armed
//
// Transfers: the Begin assignment produces {U}; h.Finish maps U→F (and
// reports when F is already possible: a double Finish on some path);
// `defer h.Finish(..)` arms D. The edge out of `if err != nil` (for the
// err bound by the same Begin) kills the handle on the error outcome, so
// the canonical guard does not produce a false leak. At function Exit a
// state still containing U means some path leaks the handle. PanicExit is
// deliberately ignored: panic paths are covered by deferred Finish when
// the program cares, and flagging every `if err != nil { panic(err) }`
// would bury the real findings.
//
// Handles that escape the frame in any way (even benign synchronous ones)
// are skipped, as are handles with no Finish event at all — the latter is
// beginfinish's finding, and reporting it twice helps nobody.
var analyzerFinishPath = &Analyzer{
	Name: "finishpath",
	Tier: TierCFG,
	Doc:  "every control-flow path from Loop.Begin must reach exactly one Finish (early returns included)",
	run:  runFinishPath,
}

// Handle-state lattice: a bitset over the five conditions.
type handleState uint8

const (
	hsDead handleState = 1 << iota // no live handle on this path
	hsU                            // live, unfinished
	hsUD                           // live, unfinished, deferred Finish armed
	hsF                            // finished
	hsFD                           // finished, deferred Finish armed
)

func runFinishPath(p *Pass) {
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		var handles []*trackedHandle
		for _, h := range trackHandles(p, body) {
			if h.obj == nil || h.escaped() {
				continue
			}
			if !h.finished() {
				continue // no Finish anywhere: beginfinish reports that
			}
			handles = append(handles, h)
		}
		if len(handles) == 0 {
			return
		}
		g := buildCFG(body, p.Info)
		for _, h := range handles {
			analyzeFinishPaths(p, g, h)
		}
	})
}

// analyzeFinishPaths runs the dataflow for one handle, once per
// constructor site so that a leak is reported at the constructor that
// leaks, and reports leaks and double finishes.
func analyzeFinishPaths(p *Pass, g *CFG, h *trackedHandle) {
	doubles := map[token.Pos]bool{}
	for _, site := range h.sites() {
		fa := &finishAnalysis{p: p, g: g, h: h, site: site}
		fa.buildEvents()
		in := fa.solve()

		// Reporting pass: replay transfers with the fixed point.
		for _, b := range g.Blocks {
			st := in[b.Index]
			if st == 0 {
				continue // unreachable
			}
			for _, n := range b.Nodes {
				st = fa.transfer(n, st, func(pos token.Pos) { doubles[pos] = true })
			}
		}
		if in[g.Exit.Index]&hsU != 0 {
			p.reportf(site.beginPos, "some path from this Loop.Begin reaches a function exit without %s.Finish; every path needs exactly one Finish (or a deferred one)", h.obj.Name())
		}
	}
	for pos := range doubles {
		p.reportf(pos, "%s.Finish may already have run on some path to this call; Finish recycles the handle, a second call corrupts the pool protocol", h.obj.Name())
	}
}

// finishAnalysis is the per-handle dataflow instance.
type finishAnalysis struct {
	p *Pass
	g *CFG
	h *trackedHandle
	// site is the constructor call followed, one of h.sites().
	site *trackedHandle

	// events maps a CFG node to the handle events inside it, in source
	// order.
	events map[ast.Node][]handleEvent
}

type handleEvent struct {
	kind eventKind
	pos  token.Pos
}

type eventKind int

const (
	evBegin eventKind = iota
	evFinish
	evDeferFinish
)

// buildEvents indexes the handle's Begin/Finish/defer events by the CFG
// node that contains them. A single statement can hold several (e.g. an
// if-init Begin is its own node, but `res := h.Finish(i)` nests the call
// in an assignment).
func (fa *finishAnalysis) buildEvents() {
	finishSet := map[*ast.CallExpr]bool{}
	for _, c := range fa.h.finishCalls {
		finishSet[c] = true
	}
	deferSet := map[*ast.DeferStmt]bool{}
	for _, d := range fa.h.deferFinish {
		deferSet[d] = true
	}
	fa.events = map[ast.Node][]handleEvent{}
	for _, b := range fa.g.Blocks {
		for _, n := range b.Nodes {
			fa.indexNode(n, finishSet, deferSet)
		}
	}
}

func (fa *finishAnalysis) indexNode(n ast.Node, finishSet map[*ast.CallExpr]bool, deferSet map[*ast.DeferStmt]bool) {
	roots := []ast.Node{n}
	if r, ok := n.(*ast.RangeStmt); ok {
		// A range head node re-executes every iteration, but only its
		// key/value/expression parts run there — the loop body has its own
		// blocks, and indexing it here would replay its Finish events at
		// the head (a phantom double on the back edge).
		roots = roots[:0]
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				roots = append(roots, e)
			}
		}
	}
	for _, root := range roots {
		fa.indexEvents(n, root, finishSet, deferSet)
	}
	// The Begin event belongs at the front of its statement's events:
	// the handle becomes live before anything else in the statement can
	// finish it (Go evaluates the RHS call first).
	for _, s := range fa.h.sites() {
		if n == s.beginStmt {
			fa.events[n] = append([]handleEvent{{evBegin, s.beginPos}}, fa.events[n]...)
		}
	}
}

// indexEvents records the Finish / defer-Finish events found under root
// against the CFG node n that executes them.
func (fa *finishAnalysis) indexEvents(n, root ast.Node, finishSet map[*ast.CallExpr]bool, deferSet map[*ast.DeferStmt]bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // closures are not inline events
		case *ast.DeferStmt:
			if deferSet[m] {
				fa.events[n] = append(fa.events[n], handleEvent{evDeferFinish, m.Pos()})
			}
			return false // the deferred call does not run here
		case *ast.CallExpr:
			if finishSet[m] {
				fa.events[n] = append(fa.events[n], handleEvent{evFinish, m.Pos()})
			}
		}
		return true
	})
}

// transfer applies the events of one CFG node to a state set. onDouble is
// called with the position of a Finish that may run on an
// already-finished path.
func (fa *finishAnalysis) transfer(n ast.Node, st handleState, onDouble func(token.Pos)) handleState {
	for _, ev := range fa.events[n] {
		switch ev.kind {
		case evBegin: // a sibling site's rebinds the variable to its own handle
			st = hsDead
			if ev.pos == fa.site.beginPos {
				st = hsU
			}
		case evFinish:
			if st&(hsF|hsFD) != 0 && onDouble != nil {
				onDouble(ev.pos)
			}
			next := st & hsDead
			if st&(hsU|hsF) != 0 {
				next |= hsF
			}
			if st&(hsUD|hsFD) != 0 {
				next |= hsFD
			}
			st = next
		case evDeferFinish:
			next := st & hsDead
			if st&(hsU|hsUD) != 0 {
				next |= hsUD
			}
			if st&(hsF|hsFD) != 0 {
				next |= hsFD
			}
			st = next
		}
	}
	return st
}

// edgeState propagates a block's out-state across one edge, applying the
// error-check kill: on the edge where the Begin's error is known non-nil
// the handle is invalid, so the obligation to Finish it disappears.
func (fa *finishAnalysis) edgeState(from, to *Block, out handleState) handleState {
	cond, outcome, ok := fa.g.CondEdge(from, to)
	if !ok || fa.site.errObj == nil {
		return out
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return out
	}
	var kill bool
	switch bin.Op {
	case token.NEQ: // err != nil: true-edge means Begin failed
		kill = outcome && fa.isErrNilTest(bin)
	case token.EQL: // err == nil: false-edge means Begin failed
		kill = !outcome && fa.isErrNilTest(bin)
	}
	if kill && out&(hsU|hsUD) != 0 {
		out = (out &^ (hsU | hsUD)) | hsDead
	}
	return out
}

// isErrNilTest reports whether bin compares this handle's error variable
// against nil (either operand order).
func (fa *finishAnalysis) isErrNilTest(bin *ast.BinaryExpr) bool {
	return (fa.isErrIdent(bin.X) && isNilIdent(fa.p.Info, bin.Y)) ||
		(fa.isErrIdent(bin.Y) && isNilIdent(fa.p.Info, bin.X))
}

func (fa *finishAnalysis) isErrIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && fa.p.Info.Uses[id] == fa.site.errObj
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	if obj := info.Uses[id]; obj != nil {
		_, isNil := obj.(*types.Nil)
		return isNil
	}
	return true // partial type info: trust the spelling
}

// solve runs the forward may-analysis to a fixed point and returns the
// entry state of every block (indexed by Block.Index).
func (fa *finishAnalysis) solve() []handleState {
	n := len(fa.g.Blocks)
	in := make([]handleState, n)
	in[fa.g.Entry.Index] = hsDead

	work := []*Block{fa.g.Entry}
	inWork := make([]bool, n)
	inWork[fa.g.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		out := in[b.Index]
		for _, nd := range b.Nodes {
			out = fa.transfer(nd, out, nil)
		}
		for _, s := range b.Succs {
			ns := fa.edgeState(b, s, out)
			if ns|in[s.Index] != in[s.Index] {
				in[s.Index] |= ns
				if !inWork[s.Index] {
					work = append(work, s)
					inWork[s.Index] = true
				}
			}
		}
	}
	return in
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// beginfinish enforces the execution-handle protocol of the loop
// controller: every *LoopExec obtained from Loop.Begin must reach a
// Finish call. The paper's generated code (Figure 3) always emits the
// epilogue; a leaked handle silently disables monitoring and
// recalibration for that execution, so the SLA guarantee quietly erodes.
var analyzerBeginFinish = &Analyzer{
	Name:     "beginfinish",
	Category: CategoryContract,
	Tier:     TierBlock,
	Doc:      "a Loop.Begin execution handle must have Finish called on it",
	run:      runBeginFinish,
}

// execHandle tracks one LoopExec variable within a single function body.
type execHandle struct {
	obj       types.Object // nil when the handle is discarded outright
	beginPos  token.Pos
	finished  bool // exec.Finish(...) seen
	continued bool // exec.Continue(...) or exec.ContinueN(...) seen
	escaped   bool // handle leaves the function's direct control
}

// loopExecHandles finds every Loop.Begin call in body and classifies how
// its execution handle is used. The analysis is intra-procedural and
// deliberately conservative: a handle that escapes (returned, stored, or
// passed elsewhere) is never reported.
func loopExecHandles(p *Pass, body *ast.BlockStmt) []*execHandle {
	var handles []*execHandle
	byObj := map[types.Object]*execHandle{}

	// Pass 1: locate Begin calls and the variables bound to them.
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMethod(calleeOf(p.Info, call), corePath, "Loop", "Begin") {
			return
		}
		h := &execHandle{beginPos: call.Pos(), escaped: true}
		if len(stack) > 0 {
			switch parent := stack[len(stack)-1].(type) {
			case *ast.ExprStmt:
				// l.Begin(q) as a bare statement: handle discarded.
				h.escaped = false
			case *ast.AssignStmt:
				if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) && len(parent.Lhs) >= 1 {
					if id, ok := parent.Lhs[0].(*ast.Ident); ok {
						if id.Name == "_" {
							h.escaped = false // discarded via blank
						} else if obj := objectOf(p.Info, id); obj != nil {
							h.obj = obj
							h.escaped = false
							byObj[obj] = h
						}
					}
				}
			}
		}
		handles = append(handles, h)
	})
	if len(byObj) == 0 {
		return handles
	}

	// Pass 2: classify every use of the tracked handle variables.
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		h := byObj[p.Info.Uses[id]]
		if h == nil || len(stack) == 0 {
			return
		}
		sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
		if !ok || sel.X != ast.Expr(id) {
			h.escaped = true // returned, reassigned, passed as argument, ...
			return
		}
		// exec.Method: only a direct call to Finish, Continue or ContinueN
		// keeps the handle under this function's control.
		isCall := false
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
				isCall = true
			}
		}
		switch {
		case isCall && sel.Sel.Name == "Finish":
			h.finished = true
		case isCall && (sel.Sel.Name == "Continue" || sel.Sel.Name == "ContinueN"):
			h.continued = true
		default:
			h.escaped = true // method value, unknown selector, ...
		}
	})
	return handles
}

// objectOf resolves an identifier in either defining (:=) or using (=)
// position.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func runBeginFinish(p *Pass) {
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		for _, h := range loopExecHandles(p, body) {
			switch {
			case h.escaped:
				// Conservative: the handle may be finished elsewhere.
			case h.obj == nil:
				p.reportf(h.beginPos, "execution handle from Loop.Begin is discarded; every Begin needs a matching Finish")
			case !h.finished:
				p.reportf(h.beginPos, "%s.Finish is never called in this function; the execution handle from Loop.Begin leaks", h.obj.Name())
			}
		}
	})
}

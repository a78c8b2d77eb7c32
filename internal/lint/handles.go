package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one tracking layer under the four handle analyzers
// (beginfinish, continuecond, finishpath, handleescape). trackedHandle
// records *how* each use of an execution handle relates to its pool
// lifetime: which statements Finish it, which defers arm a Finish,
// whether a Continue ever guards it, and which uses move the handle
// beyond its frame.

// escapeKind classifies one way a handle value leaves the direct control
// of the function that called Begin.
type escapeKind int

const (
	escNone escapeKind = iota
	// escReturned: the handle is a return value; its frame dies first.
	escReturned
	// escStoredField: assigned to a struct field.
	escStoredField
	// escStoredGlobal: assigned to a package-level variable.
	escStoredGlobal
	// escStoredElem: assigned into a slice/map/array element or through a
	// pointer dereference.
	escStoredElem
	// escSentChan: sent on a channel to another goroutine.
	escSentChan
	// escGoCall: passed as an argument in a go statement.
	escGoCall
	// escGoClosure: captured by a function literal launched as a
	// goroutine.
	escGoClosure
	// escEscapingClosure: captured by a function literal that itself
	// escapes (returned or stored).
	escEscapingClosure
	// escOther: aliases, plain call arguments, method values — uses the
	// analyzers treat conservatively (no report, no dataflow claims).
	escOther
)

// escapeUse is one escaping use of a handle.
type escapeUse struct {
	kind escapeKind
	pos  token.Pos
}

// describe renders the escape for a diagnostic; empty for kinds that are
// tracked only to mute the dataflow analyzers.
func (e escapeUse) describe() string {
	switch e.kind {
	case escReturned:
		return "returned from the function that called Begin"
	case escStoredField:
		return "stored in a struct field"
	case escStoredGlobal:
		return "stored in a package-level variable"
	case escStoredElem:
		return "stored in a container element or through a pointer"
	case escSentChan:
		return "sent on a channel"
	case escGoCall:
		return "passed to a goroutine"
	case escGoClosure:
		return "captured by a goroutine closure"
	case escEscapingClosure:
		return "captured by a closure that escapes"
	}
	return ""
}

// trackedHandle is one execution handle (*core.LoopExec or
// *core.LoopBatch) bound from the call that constructed it, with every
// use classified.
type trackedHandle struct {
	obj      types.Object // the handle variable; nil when not bound to one
	errObj   types.Object // the error variable of the same Begin, if any
	beginPos token.Pos
	// discarded: the call is a bare statement or binds the handle to the
	// blank identifier, so nothing can ever Finish it.
	discarded bool
	// continued: a direct h.Continue(...) or h.ContinueN(...) call exists.
	continued bool
	// beginStmt is the statement containing the Begin call (assignment
	// or expression statement), the node the dataflow keys on.
	beginStmt ast.Node
	// alts are the constructor calls bound to the same variable on the
	// other arm of an if/else (`if feat != nil { e, err = l.ExecFeat(..)
	// } else { e, err = l.Begin(..) }`): one handle at run time, so they
	// share these uses and carry only beginPos, beginStmt, errObj, stack.
	alts  []*trackedHandle
	stack []ast.Node // ancestors of the constructor call

	// finishCalls are direct h.Finish(...) call expressions executed
	// inline (not deferred, not inside a nested function literal).
	finishCalls []*ast.CallExpr
	// deferFinish are defer statements guaranteeing a Finish at every
	// exit once executed: `defer h.Finish(n)` or a deferred closure whose
	// body calls h.Finish.
	deferFinish []*ast.DeferStmt
	// escapes are the uses that move the handle out of the frame.
	escapes []escapeUse
}

// sites lists the handle's constructor calls: itself, then its alts.
func (h *trackedHandle) sites() []*trackedHandle {
	return append([]*trackedHandle{h}, h.alts...)
}

// escaped reports whether any use at all leaves the frame; dataflow
// clients must skip such handles.
func (h *trackedHandle) escaped() bool { return len(h.escapes) > 0 }

// finished reports whether any Finish, inline or deferred, exists.
func (h *trackedHandle) finished() bool { return len(h.finishCalls)+len(h.deferFinish) > 0 }

// constructsHandle reports whether call returns an execution handle:
// its first result is a *core.LoopExec or *core.LoopBatch. Judging by
// the result type instead of a table of method names covers Begin,
// ExecFeat, ExecN, ExecNFeat and whichever entry point comes next.
func constructsHandle(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false // a conversion, not a call
	}
	t := info.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		t = tup.At(0).Type()
	}
	return isPkgType(t, corePath, "LoopExec") || isPkgType(t, corePath, "LoopBatch")
}

// objectOf resolves an identifier in either defining (:=) or using (=)
// position.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// trackHandles finds every handle-constructing call in body and
// classifies all uses of each bound handle. body is analyzed as one
// frame: uses inside nested function literals are classified as
// captures, not as inline events (the literal runs at an unknown time
// relative to Finish).
func trackHandles(p *Pass, body *ast.BlockStmt) []*trackedHandle {
	var handles []*trackedHandle
	byObj := map[types.Object]*trackedHandle{}

	// Pass 1: find `h, err := l.Begin(q)` bindings (any assignment depth:
	// statement context, if/for init, ...).
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !constructsHandle(p.Info, call) {
			return
		}
		if enclosingFuncLit(stack, body) != nil {
			return // a nested frame owns this handle
		}
		h := &trackedHandle{beginPos: call.Pos(), beginStmt: ast.Node(call)}
		if len(stack) > 0 {
			if parent, ok := stack[len(stack)-1].(*ast.AssignStmt); ok &&
				len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) {
				h.beginStmt = parent
				if len(parent.Lhs) >= 1 {
					if id, ok := parent.Lhs[0].(*ast.Ident); !ok {
						// bound straight into a field or element: untracked
					} else if id.Name == "_" {
						h.discarded = true
					} else if obj := objectOf(p.Info, id); obj != nil {
						h.obj = obj
					}
				}
				if len(parent.Lhs) >= 2 {
					if id, ok := parent.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
						h.errObj = objectOf(p.Info, id)
					}
				}
				if h.obj != nil {
					h.stack = append([]ast.Node(nil), stack...)
					if first := byObj[h.obj]; first != nil && first.exclusiveWith(h) {
						first.alts = append(first.alts, h)
						return
					}
					byObj[h.obj] = h
				}
			} else if parent, ok := stack[len(stack)-1].(*ast.ExprStmt); ok {
				h.beginStmt = parent
				h.discarded = true
			}
		}
		handles = append(handles, h)
	})
	if len(byObj) == 0 {
		return handles
	}

	// Pass 2: classify each use of a tracked handle variable.
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		h := byObj[p.Info.Uses[id]]
		if h == nil || len(stack) == 0 {
			return
		}
		classifyUse(p, h, id, stack, body)
	})
	return handles
}

// exclusiveWith reports whether o's constructor call never runs in the
// same pass as any of h's: their ancestor stacks part at the two arms of
// an if/else (an else-if chain included).
func (h *trackedHandle) exclusiveWith(o *trackedHandle) bool {
	for _, s := range h.sites() {
		a, b, i := s.stack, o.stack, 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		if i == 0 || i == len(a) || i == len(b) {
			return false
		}
		fork, ok := a[i-1].(*ast.IfStmt)
		arm := func(n ast.Node) bool { return n == ast.Node(fork.Body) || n == ast.Node(fork.Else) }
		if !ok || !arm(a[i]) || !arm(b[i]) {
			return false
		}
	}
	return true
}

// enclosingFuncLit returns the innermost function literal on the stack,
// together with its own ancestor stack, or nil when the node belongs to
// body's frame directly.
func enclosingFuncLit(stack []ast.Node, body *ast.BlockStmt) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == ast.Node(body) {
			return nil
		}
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

// classifyUse records what one identifier occurrence does with handle h.
func classifyUse(p *Pass, h *trackedHandle, id *ast.Ident, stack []ast.Node, body *ast.BlockStmt) {
	// Uses inside nested function literals are captures; the closure's
	// own fate decides the escape kind.
	if fl := enclosingFuncLit(stack, body); fl != nil {
		h.classifyCapture(p, fl, id, stack)
		return
	}

	parent := stack[len(stack)-1]
	switch parent := parent.(type) {
	case *ast.SelectorExpr:
		if parent.X != ast.Expr(id) {
			return // h is the field name of some other selector: not a use
		}
		// h.Method: a direct call to the handle's own protocol (Finish,
		// Continue/ContinueN, and a batch's Next/End) stays in-frame.
		call := callOf(stack, parent)
		switch {
		case call != nil && parent.Sel.Name == "Finish":
			if d := deferOf(stack, call); d != nil {
				h.deferFinish = append(h.deferFinish, d)
			} else if goOf(stack, call) != nil {
				// `go h.Finish(n)`: runs at an unknown time.
				h.escapes = append(h.escapes, escapeUse{escGoCall, id.Pos()})
			} else {
				h.finishCalls = append(h.finishCalls, call)
			}
		case call != nil && (parent.Sel.Name == "Continue" || parent.Sel.Name == "ContinueN"):
			h.continued = true
		case call != nil && (parent.Sel.Name == "Next" || parent.Sel.Name == "End"):
			// in-frame use, nothing to record
		default:
			// Method value or unknown selector: conservative.
			h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
		}

	case *ast.ReturnStmt:
		h.escapes = append(h.escapes, escapeUse{escReturned, id.Pos()})

	case *ast.AssignStmt:
		h.classifyAssign(p, parent, id)

	case *ast.SendStmt:
		if parent.Value == ast.Expr(id) {
			h.escapes = append(h.escapes, escapeUse{escSentChan, id.Pos()})
		}

	case *ast.CallExpr:
		if parent.Fun == ast.Expr(id) {
			return // calling the handle: impossible, but not an escape
		}
		// Passed as an argument. A go statement hands it to another
		// goroutine; anything else is an opaque but synchronous transfer.
		if goOf(stack, parent) != nil {
			h.escapes = append(h.escapes, escapeUse{escGoCall, id.Pos()})
		} else {
			h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
		}

	case *ast.ValueSpec:
		// var alias = h
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})

	case *ast.KeyValueExpr, *ast.CompositeLit:
		// Stored into a composite value; its fate is unknown.
		h.escapes = append(h.escapes, escapeUse{escStoredElem, id.Pos()})

	case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt, *ast.CaseClause:
		// Comparisons like h == nil: reads, not escapes.

	case *ast.UnaryExpr, *ast.StarExpr, *ast.IndexExpr:
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})

	default:
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
	}
}

// classifyAssign handles `... = h` and `h = ...` forms.
func (h *trackedHandle) classifyAssign(p *Pass, as *ast.AssignStmt, id *ast.Ident) {
	// h on the left-hand side is a rebind, not an escape of the value.
	for _, l := range as.Lhs {
		if l == ast.Expr(id) {
			return
		}
	}
	// h on the right-hand side: where does it go?
	for i, r := range as.Rhs {
		if r != ast.Expr(id) {
			continue
		}
		var lhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		} else if len(as.Lhs) > 0 {
			lhs = as.Lhs[0]
		}
		h.escapes = append(h.escapes, escapeUse{storeKind(p, lhs), id.Pos()})
	}
}

// storeKind classifies the destination of an assignment of the handle.
func storeKind(p *Pass, lhs ast.Expr) escapeKind {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := objectOf(p.Info, lhs); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return escStoredGlobal
			}
		}
		return escOther // local alias: conservative, not reported
	case *ast.SelectorExpr:
		return escStoredField
	case *ast.IndexExpr, *ast.StarExpr:
		return escStoredElem
	}
	return escOther
}

// classifyCapture decides what capturing the handle in function literal
// fl means. stack is the ancestor stack of the capturing identifier (so
// it contains fl's own ancestors before fl).
func (h *trackedHandle) classifyCapture(p *Pass, fl *ast.FuncLit, id *ast.Ident, stack []ast.Node) {
	// Locate fl's position on the stack to examine *its* parents.
	idx := -1
	for i, n := range stack {
		if n == ast.Node(fl) {
			idx = i
			break
		}
	}
	if idx <= 0 {
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
		return
	}
	parent := stack[idx-1]
	// Immediately invoked or deferred literals run within this frame.
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun == ast.Expr(fl) {
		if idx >= 2 {
			switch stack[idx-2].(type) {
			case *ast.GoStmt:
				h.escapes = append(h.escapes, escapeUse{escGoClosure, id.Pos()})
				return
			case *ast.DeferStmt:
				// A deferred closure calling h.Finish is the idiomatic
				// cleanup; record it as a defer-finish when it does.
				if d, ok := stack[idx-2].(*ast.DeferStmt); ok && closureFinishes(p, fl, h.obj) {
					h.deferFinish = append(h.deferFinish, d)
					return
				}
				h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
				return
			}
		}
		// func(){...}() called inline: in-frame, but the events inside
		// are not position-ordered with the dataflow; stay conservative.
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
		return
	}
	switch parent.(type) {
	case *ast.ReturnStmt:
		h.escapes = append(h.escapes, escapeUse{escEscapingClosure, id.Pos()})
	case *ast.AssignStmt, *ast.KeyValueExpr, *ast.CompositeLit, *ast.ValueSpec:
		h.escapes = append(h.escapes, escapeUse{escEscapingClosure, id.Pos()})
	default:
		// Passed to a function taking a callback: could run either way.
		h.escapes = append(h.escapes, escapeUse{escOther, id.Pos()})
	}
}

// closureFinishes reports whether fl's body contains a direct
// obj.Finish(...) call.
func closureFinishes(p *Pass, fl *ast.FuncLit, obj types.Object) bool {
	if obj == nil || fl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Finish" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// callOf returns the call expression invoking sel (h.Finish → the
// CallExpr whose Fun is sel), or nil when sel is not being called.
func callOf(stack []ast.Node, sel *ast.SelectorExpr) *ast.CallExpr {
	if len(stack) < 2 {
		return nil
	}
	if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
		return call
	}
	return nil
}

// deferOf returns the defer statement directly wrapping call, if any.
func deferOf(stack []ast.Node, call *ast.CallExpr) *ast.DeferStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.DeferStmt); ok && d.Call == call {
			return d
		}
	}
	return nil
}

// goOf returns the go statement directly wrapping call, if any.
func goOf(stack []ast.Node, call *ast.CallExpr) *ast.GoStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if g, ok := stack[i].(*ast.GoStmt); ok && g.Call == call {
			return g
		}
	}
	return nil
}

package lint

import (
	"go/ast"
)

// handleescape flags LoopExec handles that outlive the frame that called
// Loop.Begin. Since the hot-path rework, Finish recycles every handle
// into a sync.Pool; a handle that is returned, parked in a struct or
// global, or captured by a goroutine can be recycled under its new owner
// and then observed *reinitialized for a different execution* — a
// use-after-recycle that no runtime check can catch cheaply. The paper's
// compiler-generated epilogue makes this impossible (the handle is a
// stack temporary); this analyzer restores that guarantee.
//
// Passing the handle to an ordinary (synchronous) function and aliasing
// it locally are not reported: the callee runs within the frame's
// lifetime. Those uses are still treated as escapes by finishpath, which
// simply stops tracking such handles.
var analyzerHandleEscape = &Analyzer{
	Name: "handleescape",
	Tier: TierCFG,
	Doc:  "a pooled Loop.Begin handle must not outlive its frame (returned, stored in a struct/global, or captured by a goroutine)",
	run:  runHandleEscape,
}

func runHandleEscape(p *Pass) {
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		for _, h := range trackHandles(p, body) {
			if h.obj == nil {
				continue // discarded handles are beginfinish's case
			}
			for _, esc := range h.escapes {
				msg := esc.describe()
				if msg == "" {
					continue // benign alias/argument: finishpath just skips it
				}
				p.reportf(esc.pos, "execution handle %s is %s; Finish recycles handles into a pool, so it must not outlive the frame that called Begin",
					h.obj.Name(), msg)
			}
		}
	})
}

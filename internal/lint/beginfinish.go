package lint

import "go/ast"

// beginfinish enforces the execution-handle protocol of the loop
// controller: every handle obtained from Loop.Begin — or any other
// constructor of a *LoopExec or *LoopBatch (ExecFeat, ExecN, …) — must
// reach a Finish call. The paper's generated code (Figure 3) always
// emits the epilogue; a leaked handle silently disables monitoring and
// recalibration for that execution, so the SLA guarantee quietly erodes.
var analyzerBeginFinish = &Analyzer{
	Name: "beginfinish",
	Tier: TierBlock,
	Doc:  "every execution handle (a *LoopExec or *LoopBatch from Begin, ExecFeat or ExecN) must have Finish called on it",
	run:  runBeginFinish,
}

func runBeginFinish(p *Pass) {
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		for _, h := range trackHandles(p, body) {
			switch {
			case h.discarded:
				p.reportf(h.beginPos, "execution handle from Loop.Begin is discarded; every Begin needs a matching Finish")
			case h.obj == nil || h.escaped():
				// Conservative: the handle may be finished elsewhere.
			case !h.finished():
				p.reportf(h.beginPos, "%s.Finish is never called in this function; the execution handle from Loop.Begin leaks", h.obj.Name())
			}
		}
	})
}

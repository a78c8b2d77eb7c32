package lint

import (
	"go/ast"
)

// continuecond enforces the paper's loop-guard contract: the synthesized
// QoS_Lp_Approx test must gate every iteration, i.e. exec.Continue(i)
// belongs in the for statement's condition and must be fed the live
// induction variable. A Continue whose boolean result is not part of a
// for condition never terminates the loop early (the approximation is
// silently dead), and a constant argument breaks both static-threshold
// comparison and adaptive period sampling.
var analyzerContinueCond = &Analyzer{
	Name:     "continuecond",
	Category: CategoryContract,
	Tier:     TierBlock,
	Doc:      "exec.Continue(i) must guard the for condition with a non-constant iteration argument",
	run:      runContinueCond,
}

func runContinueCond(p *Pass) {
	// A Finish without any Continue guard means the loop body ran
	// unguarded: the approximation never had a chance to stop it.
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		for _, h := range loopExecHandles(p, body) {
			if h.obj != nil && !h.escaped && h.finished && !h.continued {
				p.reportf(h.beginPos, "%s.Continue never guards a loop before %s.Finish; the loop cannot be approximated", h.obj.Name(), h.obj.Name())
			}
		}
	})

	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMethodCall(p.Info, call, corePath, "LoopExec", "Continue") {
				return
			}
			if !inForCond(call, stack) {
				p.reportf(call.Pos(), "exec.Continue must appear in the enclosing for condition, not the loop body")
			}
			if len(call.Args) == 1 {
				if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil {
					p.reportf(call.Pos(), "exec.Continue called with constant %s; pass the loop induction variable", tv.Value)
				}
			}
		})
	}
}

// inForCond reports whether call lies inside the condition expression of
// one of its enclosing for statements.
func inForCond(call *ast.CallExpr, stack []ast.Node) bool {
	for _, anc := range stack {
		if f, ok := anc.(*ast.ForStmt); ok && f.Cond != nil &&
			f.Cond.Pos() <= call.Pos() && call.End() <= f.Cond.End() {
			return true
		}
	}
	return false
}

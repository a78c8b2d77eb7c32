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
// comparison and adaptive period sampling. The block form,
// exec.ContinueN(i, n), guards the same way with a count: it must be
// asked inside a for loop, its result must be kept (it bounds the block
// the body may run, and 0 is the stop), and i must be the live induction
// variable.
var analyzerContinueCond = &Analyzer{
	Name: "continuecond",
	Tier: TierBlock,
	Doc:  "exec.Continue(i) must guard the for condition, and exec.ContinueN(i, n) bound a for loop's blocks, with a non-constant iteration argument",
	run:  runContinueCond,
}

func runContinueCond(p *Pass) {
	// A Finish without any Continue guard means the loop body ran
	// unguarded: the approximation never had a chance to stop it.
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		for _, h := range trackHandles(p, body) {
			if h.obj != nil && !h.escaped() && h.finished() && !h.continued {
				p.reportf(h.beginPos, "%s.Continue never guards a loop before %s.Finish; the loop cannot be approximated", h.obj.Name(), h.obj.Name())
			}
		}
	})

	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			var method string
			switch {
			case isMethodCall(p.Info, call, corePath, "LoopExec", "Continue"):
				method = "Continue"
				if !inForCond(call, stack) {
					p.reportf(call.Pos(), "exec.Continue must appear in the enclosing for condition, not the loop body")
				}
			case isMethodCall(p.Info, call, corePath, "LoopExec", "ContinueN"):
				method = "ContinueN"
				if !inFor(stack) {
					p.reportf(call.Pos(), "exec.ContinueN must be asked inside a for loop, once per block")
				}
				if resultDiscarded(call, stack) {
					p.reportf(call.Pos(), "exec.ContinueN result discarded; the count it grants must bound the block the loop body runs")
				}
			default:
				return
			}
			if len(call.Args) >= 1 {
				if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil {
					p.reportf(call.Pos(), "exec.%s called with constant %s; pass the loop induction variable", method, tv.Value)
				}
			}
		})
	}
}

// inFor reports whether the node whose ancestor stack is given lies
// anywhere inside a for statement: init, condition, post or body.
func inFor(stack []ast.Node) bool {
	for _, anc := range stack {
		if _, ok := anc.(*ast.ForStmt); ok {
			return true
		}
	}
	return false
}

// resultDiscarded reports whether call's value is dropped: a bare
// expression statement, or assigned to the blank identifier.
func resultDiscarded(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		return true
	case *ast.AssignStmt:
		for i, r := range parent.Rhs {
			if r == ast.Expr(call) && i < len(parent.Lhs) {
				id, ok := parent.Lhs[i].(*ast.Ident)
				return ok && id.Name == "_"
			}
		}
	}
	return false
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

package lint

import (
	"go/ast"
	"go/types"
)

// errdrop flags call sites that discard the error result of a Green API
// call. The constructors (NewLoop, NewApp, ...), SetAdaptive, Restore and
// the state-restoration helpers gained validating errors precisely so
// that misconfiguration is caught before the operational phase; a caller
// that drops the error with `_` or a bare statement re-opens the hole the
// validation closed — the controller silently runs with a rejected (and
// therefore unapplied, or worse, half-applied) configuration.
//
// Scope: functions and methods of package green and its core/model
// internals whose final result is an error. Calls in other packages are
// none of this suite's business.
var analyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Tier: TierCFG,
	Doc:  "error results of Green API calls (constructors, SetAdaptive, Restore, ...) must not be discarded",
	run:  runErrDrop,
}

// greenAPIPackages are the import paths whose errors errdrop guards.
var greenAPIPackages = map[string]bool{
	"green":   true,
	corePath:  true,
	modelPath: true,
}

func runErrDrop(p *Pass) {
	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(stack) == 0 {
				return
			}
			fn := calleeOf(p.Info, call)
			if fn == nil || fn.Pkg() == nil || !greenAPIPackages[fn.Pkg().Path()] {
				return
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() == 0 {
				return
			}
			last := sig.Results().At(sig.Results().Len() - 1).Type()
			if !isErrorType(last) {
				return
			}
			switch parent := stack[len(stack)-1].(type) {
			case *ast.ExprStmt:
				p.reportf(call.Pos(), "%s returns an error that is discarded; handle it — the call validates configuration the runtime no longer re-checks", fn.Name())
			case *ast.GoStmt:
				if parent.Call == call {
					p.reportf(call.Pos(), "go %s discards the call's error; handle it in the goroutine body instead", fn.Name())
				}
			case *ast.DeferStmt:
				if parent.Call == call {
					p.reportf(call.Pos(), "defer %s discards the call's error; wrap the defer in a closure that handles it", fn.Name())
				}
			case *ast.AssignStmt:
				if len(parent.Rhs) != 1 || parent.Rhs[0] != ast.Expr(call) {
					return
				}
				// The error occupies the last assignment slot.
				if len(parent.Lhs) != sig.Results().Len() {
					return
				}
				if id, ok := parent.Lhs[len(parent.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					p.reportf(call.Pos(), "the error from %s is assigned to _; handle it — the call validates configuration the runtime no longer re-checks", fn.Name())
				}
			}
		})
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

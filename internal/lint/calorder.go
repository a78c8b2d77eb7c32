package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// calorder enforces the registration protocol of the global coordinator
// (§3.4 of the paper): all approximated units are registered with the
// App before the operational phase starts feeding it QoS observations.
// A unit registered after ObserveAppQoS joins mid-flight with stale
// streak/backoff state and skews the sensitivity ranking, so the
// coordination logic silently degrades. The check is intra-procedural
// and lexical: within one function, a Register on an App object that has
// already received an ObserveAppQoS is reported.
var analyzerCalOrder = &Analyzer{
	Name: "calorder",
	Tier: TierBlock,
	Doc:  "App.Register must come before the App's first ObserveAppQoS",
	run:  runCalOrder,
}

func runCalOrder(p *Pass) {
	forEachFuncBody(p.Files, func(body *ast.BlockStmt) {
		// firstObserve records, per App object, the position of its
		// earliest operational call in this function.
		firstObserve := map[types.Object]token.Pos{}
		type regCall struct {
			pos token.Pos
			obj types.Object
		}
		var registers []regCall

		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(p.Info, call)
			switch {
			case isMethod(fn, corePath, "App", "ObserveAppQoS"):
				if obj := receiverRoot(p.Info, call); obj != nil {
					if prev, ok := firstObserve[obj]; !ok || call.Pos() < prev {
						firstObserve[obj] = call.Pos()
					}
				}
			case isMethod(fn, corePath, "App", "Register"):
				if obj := receiverRoot(p.Info, call); obj != nil {
					registers = append(registers, regCall{call.Pos(), obj})
				}
			}
			return true
		})

		for _, reg := range registers {
			if obs, ok := firstObserve[reg.obj]; ok && obs < reg.pos {
				p.reportf(reg.pos, "App.Register after ObserveAppQoS; register every approximation before operational use begins")
			}
		}
	})
}

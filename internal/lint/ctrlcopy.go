package lint

import (
	"go/ast"
	"go/types"
)

// ctrlcopy flags by-value copies of the Green controllers. Loop, Func,
// Func2 and App all embed a sync.Mutex and/or atomic state; a copy
// detaches from the shared recalibration state and, if the original is
// in use, duplicates a possibly-locked mutex — the same class of bug go
// vet's copylocks catches, but scoped to the Green API so the
// diagnostic can explain the controller-sharing contract.
var analyzerCtrlCopy = &Analyzer{
	Name: "ctrlcopy",
	Tier: TierBlock,
	Doc:  "mutex-bearing Green controllers (Loop, Func, Func2, App) must not be copied by value",
	run:  runCtrlCopy,
}

// ctrlTypes are the controller types whose value copies are forbidden.
var ctrlTypes = map[string]bool{
	"Loop":  true,
	"Func":  true,
	"Func2": true,
	"App":   true,
}

func isCtrl(t types.Type) bool { return isBareType(t, corePath, ctrlTypes) }

func ctrlName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return "controller"
}

func runCtrlCopy(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					p.checkFieldList(n.Recv, "declares a value receiver of type")
				}
				p.checkSignature(n.Type)
			case *ast.FuncLit:
				p.checkSignature(n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					p.checkCopyExpr(rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					p.checkCopyExpr(v)
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					p.checkCopyExpr(arg)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					p.checkCopyExpr(r)
				}
			}
			return true
		})
	}
}

func (p *Pass) checkSignature(ft *ast.FuncType) {
	if ft.Params != nil {
		p.checkFieldList(ft.Params, "passes by value a")
	}
	if ft.Results != nil {
		p.checkFieldList(ft.Results, "returns by value a")
	}
}

func (p *Pass) checkFieldList(fl *ast.FieldList, verb string) {
	for _, field := range fl.List {
		if t := p.Info.Types[field.Type].Type; isCtrl(t) {
			p.reportf(field.Type.Pos(), "%s %s; the controller contains sync.Mutex state, use *%s",
				verb, ctrlName(t), ctrlName(t))
		}
	}
}

// checkCopyExpr flags an expression whose evaluation copies a controller
// value. Composite literals are excluded: they construct a fresh value
// rather than copy a live one (constructors like NewLoop do this).
func (p *Pass) checkCopyExpr(e ast.Expr) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.CompositeLit:
		return
	case *ast.UnaryExpr: // &x has pointer type anyway
		return
	}
	if t := p.Info.Types[e].Type; isCtrl(t) {
		p.reportf(e.Pos(), "copies a %s by value; share the controller through a *%s",
			ctrlName(t), ctrlName(t))
	}
}

package lint

import (
	"go/ast"
	"go/types"
)

// walkStack traverses root in depth-first order, calling fn for every
// node with the stack of its ancestors (outermost first, excluding the
// node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// forEachFuncBody visits the body of every function declaration and
// function literal in the package.
func forEachFuncBody(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Body)
				}
			case *ast.FuncLit:
				if d.Body != nil {
					fn(d.Body)
				}
			}
			return true
		})
	}
}

// namedOf unwraps aliases and at most one level of pointer and returns
// the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind an alias or pointer) is
// the named type pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isBareType reports whether t is the non-pointer named type
// pkgPath.name: the form whose copy-by-value the ctrlcopy check flags.
func isBareType(t types.Type, pkgPath string, names map[string]bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && names[obj.Name()]
}

// calleeOf resolves the *types.Func a call expression invokes (methods
// and package-level functions), or nil for indirect and built-in calls.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	}
	return nil
}

// isMethodCall reports whether call invokes method on a receiver whose
// static type is pkgPath.recv. It judges by the type the method is
// selected on, not the type that declares it, so a method
// promoted from an embedded struct (LoopExec and LoopBatch both get
// Continue that way) still matches the outer type.
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgPath, recv, method string) bool {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != method {
		return false
	}
	sel, ok := info.Selections[fun]
	return ok && sel.Kind() == types.MethodVal && isPkgType(sel.Recv(), pkgPath, recv)
}

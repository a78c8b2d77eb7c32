package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the static call graph of one package: the substrate
// of the interprocedural taint tier (taint.go). Nodes are the package's
// own function and method declarations; edges are the statically
// resolvable calls between them (calleeOf: direct calls and method
// calls through a concrete receiver). Indirect calls — function values,
// interface dispatch, closures — produce no edge; the taint engine
// treats them conservatively at the call site instead (arguments flow
// to results, no sink knowledge), which is the documented soundness
// trade (DESIGN.md §7).
//
// The graph is condensed into strongly connected components with
// Tarjan's algorithm, which emits components in reverse topological
// order — callees before callers — exactly the order a bottom-up
// summary computation wants. Mutually recursive functions land in one
// component and are iterated to a (capped) fixpoint by the caller.

// cgNode is one declared function or method of the package.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	// callees are the in-package functions this one calls directly, in
	// first-call-site order, deduplicated. Calls inside function
	// literals are included: the closure may run in this frame's
	// dynamic extent, and for SCC ordering an over-edge is harmless.
	callees []*cgNode
}

// callGraph is the package's static call graph.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	// order lists the nodes in declaration order, the determinism
	// anchor for everything downstream.
	order []*cgNode
}

// buildCallGraph indexes every function declaration with a body and
// resolves the static call edges between them. With partial type
// information (lenient loads) unresolved callees simply produce fewer
// edges, never more.
func buildCallGraph(files []*ast.File, info *types.Info) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*cgNode{}}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{fn: fn, decl: fd}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	for _, n := range g.order {
		seen := map[*cgNode]bool{}
		ast.Inspect(n.decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cn, ok := g.nodes[calleeOf(info, call)]; ok && !seen[cn] {
				seen[cn] = true
				n.callees = append(n.callees, cn)
			}
			return true
		})
	}
	return g
}

// sccOrder returns the strongly connected components of the graph in
// reverse topological order of the condensation: every component comes
// after all the components it calls into, so processing the slice
// front-to-back sees callee summaries before their callers need them.
func (g *callGraph) sccOrder() [][]*cgNode {
	idx := make(map[*cgNode]int, len(g.order))
	low := make(map[*cgNode]int, len(g.order))
	onStack := map[*cgNode]bool{}
	var stack []*cgNode
	var out [][]*cgNode
	next := 0

	var strong func(v *cgNode)
	strong = func(v *cgNode) {
		idx[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.callees {
			if _, seen := idx[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && idx[w] < low[v] {
				low[v] = idx[w]
			}
		}
		if low[v] == idx[v] {
			var comp []*cgNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, n := range g.order {
		if _, seen := idx[n]; !seen {
			strong(n)
		}
	}
	return out
}

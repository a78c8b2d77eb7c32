package lint

import (
	"go/ast"
	"go/types"
)

// This file implements a small control-flow-graph builder over go/ast
// function bodies, the substrate for the flow- and path-sensitive
// analyzers (finishpath in particular). It is a deliberate subset of
// golang.org/x/tools/go/cfg, rebuilt on the standard library alone so the
// suite keeps working in hermetic environments:
//
//   - Statements are grouped into basic Blocks linked by Succs edges.
//   - if/for/range/switch/select/goto/labeled break/continue/fallthrough
//     all produce the expected edges; statement lists that cannot fall
//     through (return, panic, os.Exit, ...) end their block.
//   - Normal termination (return, falling off the end) flows to Exit;
//     panicking and other no-return calls flow to PanicExit, so analyzers
//     can reason about the two exit kinds separately (finishpath, for
//     example, does not demand a Finish on panic paths — a deferred
//     Finish covers those, and reporting them would drown real leaks in
//     noise from `if err != nil { panic(err) }` guards).
//   - The two edges leaving an if condition are tagged with the condition
//     expression and its outcome (CondEdge), giving path-sensitive
//     clients just enough to refute infeasible paths such as using a
//     handle after `if err != nil { return err }`.
//
// Known limits (documented in DESIGN.md §7): condition tags cover if
// statements only, not tagless-switch case clauses or short-circuit
// operators; goroutine and closure bodies are opaque single nodes (the
// escape analyzers classify them separately); and recover() is not
// modeled, so a panic path never rejoins normal flow.

// A Block is a basic block: a maximal sequence of statements (and loop /
// if condition expressions) with a single entry at the top.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes are the statements and condition expressions of the block in
	// execution order.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the synthetic block reached by every normal termination:
	// return statements and falling off the end of the body.
	Exit *Block
	// PanicExit is the synthetic block reached by panicking paths and
	// calls that never return (os.Exit, runtime.Goexit, log.Fatal).
	PanicExit *Block
	// Blocks lists every block, Entry/Exit/PanicExit included.
	Blocks []*Block

	condEdges map[[2]int]condEdge
}

// condEdge records that an edge is taken when cond evaluates to outcome.
type condEdge struct {
	cond    ast.Expr
	outcome bool
}

// CondEdge reports the branch condition attached to the from→to edge: the
// condition expression and the outcome (true for the then-edge, false for
// the else-edge). ok is false for unconditional edges.
func (g *CFG) CondEdge(from, to *Block) (cond ast.Expr, outcome bool, ok bool) {
	e, ok := g.condEdges[[2]int{from.Index, to.Index}]
	return e.cond, e.outcome, ok
}

// buildCFG constructs the CFG of body. info may carry partial type
// information (lenient loads); it is only consulted to classify no-return
// calls, and nil lookups simply classify fewer of them.
func buildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	g := &CFG{condEdges: map[[2]int]condEdge{}}
	b := &cfgBuilder{g: g, info: info, labels: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.PanicExit = b.newBlock()
	b.cur = g.Entry
	b.stmt(body)
	b.jump(g.Exit)
	return g
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	label string
	block *Block
}

type cfgBuilder struct {
	g    *CFG
	info *types.Info
	cur  *Block

	breaks    []branchTarget
	continues []branchTarget
	labels    map[string]*Block
	// pendingLabel is the label of the labeled statement being built, to
	// be claimed by the next loop/switch/select for labeled break and
	// continue.
	pendingLabel string
	// fallthroughTo is the body block of the next case clause while a
	// switch clause is being built.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an unconditional edge from the current block to.
func (b *cfgBuilder) jump(to *Block) {
	for _, s := range b.cur.Succs {
		if s == to {
			return
		}
	}
	b.cur.Succs = append(b.cur.Succs, to)
}

// condJump adds an edge taken when cond evaluates to outcome.
func (b *cfgBuilder) condJump(from, to *Block, cond ast.Expr, outcome bool) {
	from.Succs = append(from.Succs, to)
	b.g.condEdges[[2]int{from.Index, to.Index}] = condEdge{cond, outcome}
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// unreachable starts a fresh predecessor-less block for statements after
// a terminating one; they still get built so labels inside them resolve.
func (b *cfgBuilder) unreachable() {
	b.cur = b.newBlock()
}

// labelBlock returns (creating on first use) the block a label names, so
// goto can target labels that appear later in the source.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// takeLabel consumes the pending statement label, if any.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.pendingLabel = ""
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		b.pendingLabel = ""
		b.stmt(s.Init)
		b.add(s.Cond)
		cond := b.cur
		thenB := b.newBlock()
		done := b.newBlock()
		b.condJump(cond, thenB, s.Cond, true)
		var elseB *Block
		if s.Else != nil {
			elseB = b.newBlock()
			b.condJump(cond, elseB, s.Cond, false)
		} else {
			b.condJump(cond, done, s.Cond, false)
		}
		b.cur = thenB
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		bodyB := b.newBlock()
		done := b.newBlock()
		if s.Cond != nil {
			b.add(s.Cond)
			b.condJump(b.cur, bodyB, s.Cond, true)
			b.condJump(b.cur, done, s.Cond, false)
		} else {
			b.jump(bodyB)
		}
		contTo := head
		var postB *Block
		if s.Post != nil {
			postB = b.newBlock()
			contTo = postB
		}
		b.pushTargets(label, done, contTo)
		b.cur = bodyB
		b.stmt(s.Body)
		b.jump(contTo)
		if postB != nil {
			b.cur = postB
			b.stmt(s.Post)
			b.jump(head)
		}
		b.popTargets()
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		// The RangeStmt node itself carries the key/value assignment and
		// the ranged expression for the block's clients.
		b.add(s)
		bodyB := b.newBlock()
		done := b.newBlock()
		b.jump(bodyB)
		b.jump(done)
		b.pushTargets(label, done, head)
		b.cur = bodyB
		b.stmt(s.Body)
		b.jump(head)
		b.popTargets()
		b.cur = done

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, s.Body)

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Body)
		// s.Assign is evaluated per-clause at runtime; representing it
		// once in the head block is enough for may-analyses.

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		done := b.newBlock()
		b.pushTargets(label, done, nil)
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successors.
			b.unreachable()
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			if clause.Comm != nil {
				b.stmt(clause.Comm)
			}
			for _, st := range clause.Body {
				b.stmt(st)
			}
			b.jump(done)
		}
		b.popTargets()
		b.cur = done

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
		b.unreachable()

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isNoReturnCall(b.info, call) {
			b.jump(b.g.PanicExit)
			b.unreachable()
		}

	case *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.DeclStmt,
		*ast.IncDecStmt, *ast.SendStmt:
		b.add(s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// BadStmt and anything a future Go version adds: keep the node so
		// analyzers can still see it, with straight-line flow.
		b.add(s)
	}
}

// buildSwitch handles expression and type switches, which share their
// clause/fallthrough/break structure.
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.stmt(init)
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	done := b.newBlock()
	b.pushTargets(label, done, nil)

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		head.Succs = append(head.Succs, blocks[i])
		if c, ok := cc.(*ast.CaseClause); ok && c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	savedFall := b.fallthroughTo
	for i, cc := range clauses {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.fallthroughTo = nil
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.cur = blocks[i]
		for _, e := range clause.List {
			b.add(e)
		}
		for _, st := range clause.Body {
			b.stmt(st)
		}
		b.jump(done)
	}
	b.fallthroughTo = savedFall
	b.popTargets()
	b.cur = done
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := findTarget(b.breaks, label); t != nil {
			b.jump(t)
		}
	case "continue":
		if t := findTarget(b.continues, label); t != nil {
			b.jump(t)
		}
	case "goto":
		if label != "" {
			b.jump(b.labelBlock(label))
		}
	case "fallthrough":
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			b.unreachable()
			return
		}
	}
	b.unreachable()
}

// pushTargets enters a breakable construct; contTo is nil for switch and
// select, which break but do not continue.
func (b *cfgBuilder) pushTargets(label string, breakTo, contTo *Block) {
	b.breaks = append(b.breaks, branchTarget{label, breakTo})
	if contTo != nil {
		b.continues = append(b.continues, branchTarget{label, contTo})
	} else {
		// Keep the stacks aligned so popTargets stays trivial; a nil
		// block is never a valid continue target.
		b.continues = append(b.continues, branchTarget{label, nil})
	}
}

func (b *cfgBuilder) popTargets() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue to its block: the innermost target
// when label is empty, the labeled one otherwise.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		t := stack[i]
		if t.block == nil {
			continue
		}
		if label == "" || t.label == label {
			return t.block
		}
	}
	return nil
}

// noReturnFuncs are package-level functions that never return to their
// caller; a statement calling one ends its path like a panic does.
var noReturnFuncs = map[[2]string]bool{
	{"os", "Exit"}:        true,
	{"runtime", "Goexit"}: true,
	{"log", "Fatal"}:      true,
	{"log", "Fatalf"}:     true,
	{"log", "Fatalln"}:    true,
	{"log", "Panic"}:      true,
	{"log", "Panicf"}:     true,
	{"log", "Panicln"}:    true,
}

// isNoReturnCall reports whether call never returns: the panic builtin or
// one of noReturnFuncs. With partial type info it degrades to false,
// which only makes the CFG more conservative (extra fallthrough paths).
func isNoReturnCall(info *types.Info, call *ast.CallExpr) bool {
	if info == nil {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return noReturnFuncs[[2]string{fn.Pkg().Path(), fn.Name()}]
}

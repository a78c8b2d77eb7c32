package lint

import (
	"go/ast"
	"testing"
)

// cfgFor builds the CFG of the named function in src (a complete file).
func cfgFor(t *testing.T, src, fn string) *CFG {
	t.Helper()
	pkg, _, err := testLoader().LoadSource("cfg_"+fn+".go", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn && fd.Body != nil {
				return buildCFG(fd.Body, pkg.Info)
			}
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

// reaches reports whether to is reachable from from along Succs edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// nodeCount sums the statement/expression nodes over reachable blocks.
func nodeCount(g *CFG) int {
	n := 0
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		n += len(b.Nodes)
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g := cfgFor(t, `package p
func f() int { x := 1; x++; return x }`, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
	if reaches(g.Entry, g.PanicExit) {
		t.Fatal("panic exit should be unreachable")
	}
	if n := nodeCount(g); n != 3 {
		t.Fatalf("want 3 nodes, got %d", n)
	}
}

func TestCFGIfCondEdges(t *testing.T) {
	g := cfgFor(t, `package p
func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`, "f")
	// The condition block must have exactly one true-edge and one
	// false-edge, both tagged with the condition expression.
	var tagged int
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if cond, _, ok := g.CondEdge(b, s); ok {
				tagged++
				if id, ok := cond.(*ast.Ident); !ok || id.Name != "c" {
					t.Errorf("cond edge tagged with %T, want ident c", cond)
				}
			}
		}
	}
	if tagged != 2 {
		t.Fatalf("want 2 tagged edges, got %d", tagged)
	}
}

func TestCFGPanicPath(t *testing.T) {
	g := cfgFor(t, `package p
func f(c bool) {
	if c {
		panic("boom")
	}
}`, "f")
	if !reaches(g.Entry, g.PanicExit) {
		t.Fatal("panic exit unreachable")
	}
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("normal exit unreachable")
	}
}

func TestCFGNoReturnCall(t *testing.T) {
	g := cfgFor(t, `package p
import "os"
func f(c bool) {
	if c {
		os.Exit(2)
	}
}`, "f")
	if !reaches(g.Entry, g.PanicExit) {
		t.Fatal("os.Exit path should reach PanicExit")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := cfgFor(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		if i == 1 {
			continue
		}
		s += i
	}
	return s
}`, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
	// A back edge must exist: some reachable block has a successor that
	// can reach it again.
	back := false
	for _, b := range g.Blocks {
		if reaches(g.Entry, b) {
			for _, s := range b.Succs {
				if s != b && reaches(s, b) {
					back = true
				}
			}
		}
	}
	if !back {
		t.Fatal("loop produced no back edge")
	}
}

func TestCFGInfiniteLoop(t *testing.T) {
	g := cfgFor(t, `package p
func f() {
	for {
	}
}`, "f")
	if reaches(g.Entry, g.Exit) {
		t.Fatal("for{} must not reach exit")
	}
}

func TestCFGLabeledBreakGoto(t *testing.T) {
	g := cfgFor(t, `package p
func f(n int) int {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > i {
				break outer
			}
			if j == 2 {
				goto done
			}
		}
	}
	return 0
done:
	return 1
}`, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable through labeled control flow")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := cfgFor(t, `package p
func f(n int) int {
	s := 0
	switch n {
	case 1:
		s = 1
		fallthrough
	case 2:
		s += 2
	default:
		s = 9
	}
	return s
}`, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
}

func TestCFGSelect(t *testing.T) {
	g := cfgFor(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
	}
	return 0
}`, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
}

func TestCFGEmptySelect(t *testing.T) {
	g := cfgFor(t, `package p
func f() {
	select {}
}`, "f")
	if reaches(g.Entry, g.Exit) {
		t.Fatal("select{} must not reach exit")
	}
}

func TestCFGDeferNodeRetained(t *testing.T) {
	g := cfgFor(t, `package p
func f() {
	defer println("x")
}`, "f")
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("defer statement not retained as a CFG node")
	}
}

// TestCFGTortured feeds a grab-bag of control flow through the builder
// and only requires that construction terminates and stays consistent.
func TestCFGTortured(t *testing.T) {
	src := `package p
import "fmt"
func f(n int, ch chan int) (out int) {
	defer func() { recover() }()
	x := any(n)
	switch v := x.(type) {
	case int:
		out = v
	case string:
		goto end
	}
loop:
	for i := range n {
		switch {
		case i == 1:
			continue loop
		case i == 2:
			break loop
		}
		select {
		case ch <- i:
		default:
			fmt.Println(i)
		}
	}
end:
	return out
}`
	g := cfgFor(t, src, "f")
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == nil {
				t.Fatal("nil successor")
			}
		}
	}
}

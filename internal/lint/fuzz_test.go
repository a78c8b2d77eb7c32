package lint

import (
	"testing"
)

// FuzzAnalyzers feeds arbitrary Go source through the lenient loader and
// the full analyzer suite. The invariant under test is crash-freedom:
// whatever the input — malformed syntax, half-typed Green API usage,
// pathological control flow — parsing may fail, but nothing may panic.
func FuzzAnalyzers(f *testing.F) {
	seeds := []string{
		// The canonical correct protocol.
		`package p

import "green/internal/core"

func f(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
}
`,
		// Early-return leak with a suppression directive.
		`package p

import "green/internal/core"

func f(l *core.Loop, q core.LoopQoS, bad bool) error {
	//greenlint:ignore finishpath fuzz seed
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	if bad {
		return nil
	}
	exec.Finish(0)
	return nil
}
`,
		// Escaping handle plus dropped error.
		`package p

import "green/internal/core"

var sink *core.LoopExec

func f(l *core.Loop, q core.LoopQoS, p interface{ Any() }) {
	exec, _ := l.Begin(q)
	sink = exec
	go func() { exec.Finish(1) }()
}
`,
		// Tortured control flow: goto, labels, select, defer, panic.
		`package p

func g(ch chan int) {
	defer func() { recover() }()
L:
	for i := 0; ; i++ {
		switch i {
		case 0:
			goto L
		case 1:
			fallthrough
		case 2:
			break L
		default:
			select {
			case <-ch:
				continue L
			default:
				panic("x")
			}
		}
	}
}
`,
		// Does not type-check: undefined names and bad arity.
		`package p

import "green/internal/core"

func f(l *core.Loop) {
	exec, err := l.Begin()
	if err != nil {
		return
	}
	frobnicate(exec)
	exec.Finish(0)
}
`,
		// Nondeterminism in calibration context.
		`package p

import (
	"math/rand"
	"time"

	"green/internal/core"
	"green/internal/model"
)

func cal(name string) (*model.LoopModel, error) {
	c := core.NewLoopCalibration(name)
	start := time.Now()
	_ = c.AddRun([]float64{rand.Float64()}, []float64{time.Since(start).Seconds()})
	return c.Build()
}
`,
		// Plain loop shapes with no Green API in them: reduction,
		// convergence, early-exit scan.
		`package p

func reduce(xs []float64) float64 {
	total := 0.0
	for i := 0; i < len(xs); i++ {
		total += xs[i] * xs[i]
	}
	return total
}

func converge(x, eps float64) float64 {
	r := x
	delta := x
	for delta > eps {
		delta = delta * 0.5
		r -= delta
	}
	return r
}

func scan(xs []float64, limit float64) float64 {
	acc := 0.0
	for i := range xs {
		acc += xs[i]
		if acc >= limit {
			break
		}
	}
	return acc
}
`,
		// Indexed field accumulators, tuple assignment, alternating
		// directions, self-subtraction flips.
		`package p

type r struct{ a []float64 }

func (v *r) f(w, h int, m map[string]int) {
	zig := 0.0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v.a[y*w+x] += float64(x)
			m["k"] += x
			zig += 1.5
			zig -= 0.5
		}
	}
	var q, s int
	for i := 0; i < 8; i++ {
		q, s = s, q
		s = 1 - s
		q = q + i
	}
	_ = zig
}
`,
		// Approximate results passed around: into calibration and error
		// construction, through recursion, across a channel and a
		// goroutine, next to a directive greenlint does not know.
		`package p

import (
	"fmt"

	"green/internal/core"
)

func chain(f *core.Func, c *core.FuncCalibration, x float64) error {
	y := helper(f, x)
	if y > 1 {
		return fmt.Errorf("too big: %v", y)
	}
	return c.AddSample(0, x, y)
}

func helper(f *core.Func, x float64) float64 {
	return rec(f, x, 3)
}

func rec(f *core.Func, x float64, n int) float64 {
	if n == 0 {
		return f.Call(x)
	}
	return rec(f, x, n-1)
}

func escape(l *core.Loop, q core.LoopQoS, out chan float64) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	s := 0.0
	i := 0
	for ; exec.Continue(i); i++ {
		s += float64(i)
	}
	exec.Finish(i)
	out <- s
	go func() { out <- s }()
}

func endorsed(f *core.Func, x float64) error {
	//greenlint:endorse deliberate operator-facing report
	return fmt.Errorf("%v", f.Call(x))
}
`,
		"package p\n//greenlint:endorse\n//greenlint:endorse dangling reason\nfunc f() {}\n",
		// Syntax-adjacent garbage.
		"package p\nfunc f() { if { } }\n",
		"package p\nfunc (",
		"",
		"\x00\xff\xfe",
		"package p\n//greenlint:ignore\n//greenlint:ignore errdrop\n//greenlint:ignore errdrop reason\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh loader per input keeps the shared importer cache out of
		// the trust base; crash-freedom must not depend on warm state.
		pkg, err := NewLoader().LoadSource("fuzz.go", data)
		if err != nil {
			return // unparseable input is fine; panics are not
		}
		res, err := LintAll(pkg, nil)
		if err != nil {
			t.Fatalf("LintAll rejected valid analyzer set: %v", err)
		}
		for _, d := range append(res.Diags, res.Suppressed...) {
			if d.Check == "" || d.Message == "" {
				t.Fatalf("malformed diagnostic: %+v", d)
			}
		}
	})
}

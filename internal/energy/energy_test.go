package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccountBasics(t *testing.T) {
	a := NewAccount()
	a.Add("doc", 10)
	a.Add("doc", 5)
	a.Add("ray", 2)
	a.AddOp()
	a.AddOp()
	if got := a.units["doc"]; got != 15 {
		t.Errorf("doc units = %v, want 15", got)
	}
	if got := a.units["ray"]; got != 2 {
		t.Errorf("ray units = %v, want 2", got)
	}
	if a.ops != 2 {
		t.Errorf("ops = %v, want 2", a.ops)
	}
	cs := a.Classes()
	if len(cs) != 2 || cs[0] != "doc" || cs[1] != "ray" {
		t.Errorf("classes = %v", cs)
	}
	if s := a.String(); !strings.Contains(s, "ops=2") || !strings.Contains(s, "doc=15") {
		t.Errorf("String = %q", s)
	}
}

func TestAccountNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative work")
		}
	}()
	NewAccount().Add("x", -1)
}

func testModel() *CostModel {
	return &CostModel{
		IdleWatts:    100,
		FixedSeconds: 0.001,
		FixedJoules:  0.05,
		UnitSeconds:  map[string]float64{"doc": 1e-5},
		UnitJoules:   map[string]float64{"doc": 2e-4},
	}
}

func TestCostModelEvaluate(t *testing.T) {
	m := testModel()
	a := NewAccount()
	a.AddOp()
	a.Add("doc", 1000)
	r := m.Evaluate(a)
	wantSecs := 0.001 + 1000*1e-5 // 0.011
	wantJoules := 100*wantSecs + 0.05 + 1000*2e-4
	if math.Abs(r.Seconds-wantSecs) > 1e-12 {
		t.Errorf("Seconds = %v, want %v", r.Seconds, wantSecs)
	}
	if math.Abs(r.Joules-wantJoules) > 1e-9 {
		t.Errorf("Joules = %v, want %v", r.Joules, wantJoules)
	}
	if r.Ops != 1 {
		t.Errorf("Ops = %v, want 1", r.Ops)
	}
}

func TestReportDerived(t *testing.T) {
	r := Report{Seconds: 2, Joules: 50, Ops: 10}
	if got := r.Throughput(); got != 5 {
		t.Errorf("Throughput = %v, want 5", got)
	}
	if got := r.JoulesPerOp(); got != 5 {
		t.Errorf("JoulesPerOp = %v, want 5", got)
	}
	zero := Report{}
	if zero.Throughput() != 0 || zero.JoulesPerOp() != 0 {
		t.Error("zero report should yield zero derived metrics")
	}
}

// The core claim approximation relies on: fewer work units means both less
// simulated time and less simulated energy, but the improvement ratios
// differ because fixed costs remain.
func TestApproximationReducesTimeAndEnergyUnequally(t *testing.T) {
	m := testModel()
	base, approx := NewAccount(), NewAccount()
	base.AddOp()
	base.Add("doc", 10000)
	approx.AddOp()
	approx.Add("doc", 1000)

	rb, ra := m.Evaluate(base), m.Evaluate(approx)
	if ra.Seconds >= rb.Seconds {
		t.Fatal("approximation did not reduce time")
	}
	if ra.Joules >= rb.Joules {
		t.Fatal("approximation did not reduce energy")
	}
	timeRatio := ra.Seconds / rb.Seconds
	energyRatio := ra.Joules / rb.Joules
	if math.Abs(timeRatio-energyRatio) < 1e-9 {
		t.Errorf("time and energy ratios identical (%v); fixed costs should separate them", timeRatio)
	}
}

// Property: evaluation is additive — evaluating an account that holds
// both parts' work equals the sum of evaluating the parts.
func TestEvaluateAdditiveProperty(t *testing.T) {
	m := testModel()
	f := func(d1, d2 uint16, ops1, ops2 uint8) bool {
		a, b, both := NewAccount(), NewAccount(), NewAccount()
		a.Add("doc", float64(d1))
		b.Add("doc", float64(d2))
		both.Add("doc", float64(d1))
		both.Add("doc", float64(d2))
		for i := 0; i < int(ops1); i++ {
			a.AddOp()
			both.AddOp()
		}
		for i := 0; i < int(ops2); i++ {
			b.AddOp()
			both.AddOp()
		}
		ra, rb := m.Evaluate(a), m.Evaluate(b)
		rm := m.Evaluate(both)
		return math.Abs(rm.Seconds-(ra.Seconds+rb.Seconds)) < 1e-9 &&
			math.Abs(rm.Joules-(ra.Joules+rb.Joules)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more work never decreases time or energy.
func TestEvaluateMonotoneProperty(t *testing.T) {
	m := testModel()
	f := func(d uint16, extra uint16) bool {
		a, b := NewAccount(), NewAccount()
		a.AddOp()
		b.AddOp()
		a.Add("doc", float64(d))
		b.Add("doc", float64(d)+float64(extra))
		ra, rb := m.Evaluate(a), m.Evaluate(b)
		return rb.Seconds >= ra.Seconds && rb.Joules >= ra.Joules
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package core

import (
	"math"
	"testing"

	"green/internal/model"
)

// funcFixture builds a Func over f(x)=x^2 with two "approximations":
// v0 returns x^2*(1+0.10) (10% off), v1 returns x^2*(1+0.01) (1% off).
// The model gives v0 loss 0.10 everywhere, v1 loss 0.01 everywhere, over
// the domain [0, 10].
func funcFixture(t *testing.T, sla float64, sampleInterval int) *Func {
	t.Helper()
	mkSamples := func(loss float64) []model.FuncSample {
		return []model.FuncSample{{X: 0, Loss: loss}, {X: 10, Loss: loss}}
	}
	fm, err := model.BuildFuncModel("sq", 18, []model.VersionCurve{
		{Name: "sq(0)", Work: 4, Samples: mkSamples(0.10)},
		{Name: "sq(1)", Work: 8, Samples: mkSamples(0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	precise := func(x float64) float64 { return x * x }
	v0 := func(x float64) float64 { return x * x * 1.10 }
	v1 := func(x float64) float64 { return x * x * 1.01 }
	f, err := NewFunc(FuncConfig{
		Name: "sq", Model: fm, SLA: sla, SampleInterval: sampleInterval,
	}, precise, []Fn{v0, v1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// funcCtl is what the function-controller tests use of Func and Func2.
type funcCtl interface {
	Controller
	Unit
	Offset() int
	State() FuncState
	Restore(FuncState) error
	Work() float64
	WorkReset()
}

// funcRow is one function controller kind built for a table row: the
// controller, a call at its in-domain point with that point's precise
// result, and the ladder fields tests swap.
type funcRow struct {
	funcCtl
	call        func() float64
	precise     float64
	qos         *FuncQoS
	onEvent     *EventFunc
	breakApprox func() // every approximate version panics from now on
}

func rowOf[A arg](c funcCtl, l *ladder[A], call func() float64, precise float64) funcRow {
	return funcRow{c, call, precise, &l.qos, &l.onEvent, func() {
		for i := 1; i < len(l.rungs); i++ {
			l.rungs[i].fn = func(A) float64 { panic("approx version exploded") }
		}
	}}
}

type funcKind struct {
	name  string
	build func(t *testing.T, sla float64, interval int) funcRow
}

// funcKinds builds each function controller kind over its fixture: x² at
// 2 (funcFixture), and x·y at (2, 3) (func2Fixture, the same model).
var funcKinds = []funcKind{
	{"func", func(t *testing.T, sla float64, interval int) funcRow {
		f := funcFixture(t, sla, interval)
		return rowOf(f, &f.ladder, func() float64 { return f.Call(2) }, 4)
	}},
	{"func2", func(t *testing.T, sla float64, interval int) funcRow {
		f := func2Fixture(t, sla, interval)
		return rowOf(f, &f.ladder, func() float64 { return f.Call(2, 3) }, 6)
	}},
}

func TestNewFuncErrors(t *testing.T) {
	fm, _ := model.BuildFuncModel("f", 18, []model.VersionCurve{
		{Name: "v", Work: 4, Samples: []model.FuncSample{{X: 0, Loss: 0}}},
	})
	id := func(x float64) float64 { return x }
	if _, err := NewFunc(FuncConfig{Model: nil}, id, []Fn{id}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewFunc(FuncConfig{Model: fm}, nil, []Fn{id}); err == nil {
		t.Error("nil precise accepted")
	}
	if _, err := NewFunc(FuncConfig{Model: fm}, id, nil); err == nil {
		t.Error("version count mismatch accepted")
	}
	if _, err := NewFunc(FuncConfig{Model: fm, SLA: -1}, id, []Fn{id}); err == nil {
		t.Error("negative SLA accepted")
	}
}

func TestFuncSelectsCheapestMeetingSLA(t *testing.T) {
	// SLA 0.05: v0 (loss .10) fails, v1 (loss .01) qualifies.
	f := funcFixture(t, 0.05, 0)
	got := f.Call(2)
	want := 4 * 1.01
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Call(2) = %v, want v1 result %v", got, want)
	}
	// SLA 0.2: v0 qualifies and is cheaper.
	f = funcFixture(t, 0.2, 0)
	got = f.Call(2)
	want = 4 * 1.10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Call(2) = %v, want v0 result %v", got, want)
	}
	// SLA 0.001: neither qualifies; precise.
	f = funcFixture(t, 0.001, 0)
	if got := f.Call(2); got != 4 {
		t.Errorf("Call(2) = %v, want precise 4", got)
	}
}

func TestFuncOutsideCalibratedDomainIsPrecise(t *testing.T) {
	f := funcFixture(t, 0.5, 0)
	if got := f.Call(50); got != 2500 {
		t.Errorf("Call(50) = %v, want precise 2500 outside domain", got)
	}
	if got := f.Call(-3); got != 9 {
		t.Errorf("Call(-3) = %v, want precise 9 below domain", got)
	}
}

func TestFuncKeyMapsDomain(t *testing.T) {
	// With Key = abs, negative inputs fall inside the calibrated domain.
	mkSamples := func(loss float64) []model.FuncSample {
		return []model.FuncSample{{X: 0, Loss: loss}, {X: 10, Loss: loss}}
	}
	fm, err := model.BuildFuncModel("sq", 18, []model.VersionCurve{
		{Name: "v0", Work: 4, Samples: mkSamples(0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFunc(FuncConfig{
		Name: "sq", Model: fm, SLA: 0.05, Key: math.Abs,
	}, func(x float64) float64 { return x * x },
		[]Fn{func(x float64) float64 { return x*x + 0.001 }})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Call(-3); got != 9.001 {
		t.Errorf("Call(-3) = %v, want approximate 9.001 via abs key", got)
	}
}

func TestFuncMonitoredCallReturnsPreciseAndRecalibrates(t *testing.T) {
	// SLA 0.05, v1 selected (loss 0.01 < 0.9*SLA=0.045): every monitored
	// call should push toward less precision (decrease accuracy).
	f := funcFixture(t, 0.05, 1)
	got := f.Call(2)
	if got != 4 {
		t.Errorf("monitored Call(2) = %v, want precise 4", got)
	}
	if f.Offset() != -1 {
		t.Errorf("offset = %d, want -1 after decrease", f.Offset())
	}
	calls, mon, meanLoss := f.Stats()
	if calls != 1 || mon != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", calls, mon)
	}
	if math.Abs(meanLoss-0.01) > 1e-9 {
		t.Errorf("meanLoss = %v, want ~0.01", meanLoss)
	}
	// Next (non-monitored... interval=1 so still monitored) — use a fresh
	// instance with interval 2 to check offset applies.
	f = funcFixture(t, 0.05, 0)
	f.DecreaseAccuracy()
	got = f.Call(2)
	want := 4 * 1.10 // offset -1 moved selection from v1 to v0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Call with offset -1 = %v, want %v", got, want)
	}
}

func TestFuncRecalibrationIncreasesOnHighLoss(t *testing.T) {
	// SLA 0.001 would select precise everywhere — instead make SLA 0.2 so
	// v0 is selected (loss 0.10), then tighten the effective QoS with a
	// custom QoS function that reports huge loss, forcing increase.
	f := funcFixture(t, 0.2, 1)
	f.qos = func(p, a float64) float64 { return 1.0 }
	f.Call(2)
	if f.Offset() != 1 {
		t.Errorf("offset = %d, want +1 after increase", f.Offset())
	}
	// With offset +1, selection v0 -> v1.
	f.setInterval(0)
	got := f.Call(2)
	want := 4 * 1.01
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Call after increase = %v, want %v", got, want)
	}
}

func TestFuncOffsetSaturatesToPrecise(t *testing.T) {
	f := funcFixture(t, 0.2, 0)
	f.IncreaseAccuracy()
	f.IncreaseAccuracy()
	f.IncreaseAccuracy() // beyond version count: precise
	if got := f.Call(2); got != 4 {
		t.Errorf("fully-increased Call = %v, want precise 4", got)
	}
	if f.IncreaseAccuracy() && f.Offset() > f.n {
		t.Error("offset exceeded saturation bound")
	}
}

func TestFuncDisabled(t *testing.T)       { disables(t, funcKinds[0]) }
func TestFunc2UnitInterface(t *testing.T) { disables(t, funcKinds[1]) }

func disables(t *testing.T, k funcKind) {
	f := k.build(t, 0.2, 0)
	if !f.ApproxEnabled() || f.call() == f.precise {
		t.Fatalf("%s: a fresh controller should approximate", k.name)
	}
	before := f.State()
	f.DisableApprox()
	if f.ApproxEnabled() {
		t.Errorf("%s: still enabled after DisableApprox", k.name)
	}
	if got := f.call(); got != f.precise {
		t.Errorf("%s: disabled call = %v, want precise", k.name, got)
	}
	if err := f.Restore(before); err != nil || !f.ApproxEnabled() || f.call() == f.precise {
		t.Errorf("%s: restoring the state from before DisableApprox did not re-enable (%v)", k.name, err)
	}
	if !f.IncreaseAccuracy() || f.Offset() != 1 || !f.DecreaseAccuracy() || f.Offset() != 0 {
		t.Errorf("%s: accuracy steps did not move the offset 0 → 1 → 0 (at %d)", k.name, f.Offset())
	}
	if s := f.Sensitivity(); s <= 0 {
		t.Errorf("%s: Sensitivity = %v, want positive (v1 much better than v0)", k.name, s)
	}
}

func TestFuncWorkAccounting(t *testing.T) {
	f := funcFixture(t, 0.2, 0)
	f.Call(2) // v0: work 4
	f.Call(3) // v0: work 4
	if got := f.Work(); got != 8 {
		t.Errorf("work = %v, want 8", got)
	}
	f.WorkReset()
	if got := f.Work(); got != 0 {
		t.Errorf("work after reset = %v", got)
	}
	// Precise call charges precise work.
	f2 := funcFixture(t, 0.001, 0)
	f2.Call(2)
	if got := f2.Work(); got != 18 {
		t.Errorf("precise work = %v, want 18", got)
	}
	// Monitored call charges precise + selected version.
	f3 := funcFixture(t, 0.2, 1)
	f3.Call(2)
	if got := f3.Work(); got != 22 { // 18 precise + 4 v0
		t.Errorf("monitored work = %v, want 22", got)
	}
}

func TestFuncStatsAndName(t *testing.T) {
	f := funcFixture(t, 0.2, 0)
	if f.Name() != "sq" {
		t.Error("name wrong")
	}
	if got := f.Ranges(); len(got) == 0 {
		t.Error("no ranges exposed")
	}
	if s := f.Sensitivity(); s <= 0 {
		t.Errorf("Sensitivity = %v, want > 0 (v1 much better than v0)", s)
	}
}

func TestFuncSensitivityAtTopIsZeroOrFinite(t *testing.T) {
	f := funcFixture(t, 0.05, 0) // selects v1 (most precise version)
	s := f.Sensitivity()
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("sensitivity not finite: %v", s)
	}
}

func TestFuncCustomQoS(t *testing.T) {
	called := false
	f := funcFixture(t, 0.2, 1)
	f.qos = func(p, a float64) float64 {
		called = true
		return 0.15 // in band [0.18? no: 0.9*0.2=0.18 -> 0.15 < 0.18: decrease
	}
	f.Call(2)
	if !called {
		t.Error("custom QoS not invoked on monitored call")
	}
	if f.Offset() != -1 {
		t.Errorf("offset = %d, want -1", f.Offset())
	}
}

// Work() is exact, for both kinds. With unit costs that are not whole
// thousandths the order of rounding shows: a non-monitored Call adds its
// version's cost converted on its own (what the constructor
// precomputes), a monitored call converts the sum of the precise and the
// approximate cost, CallN converts the float sum over the batch. The
// expectation below writes those three rules out call by call.
func TestFuncWorkIsExact(t *testing.T) {
	const wp, w0, w1 = 18.0, 0.3335, 4.0005
	mkSamples := func(loss float64) []model.FuncSample {
		return []model.FuncSample{{X: 0, Loss: loss}, {X: 10, Loss: loss}}
	}
	fm, err := model.BuildFuncModel("sq", wp, []model.VersionCurve{
		{Name: "sq(0)", Work: w0, Samples: mkSamples(0.10)},
		{Name: "sq(1)", Work: w1, Samples: mkSamples(0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	gm := oneCellModel(t, wp, []float64{w0, w1}, []float64{0.10, 0.01}) // Func2's, on [0, 10)²
	sq := func(x float64) float64 { return x * x }
	mul := func(x, y float64) float64 { return x * y }
	const interval = 4
	pol := holdPolicy{} // holds level and interval
	f1, err := NewFunc(FuncConfig{Name: "sq", Model: fm, SLA: 0.2, SampleInterval: interval, Policy: pol}, sq, []Fn{sq, sq})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFunc2(Func2Config{Name: "sq", Model: gm, SLA: 0.2, SampleInterval: interval, Policy: pol}, mul, []Fn2{mul, mul})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		name  string
		f     funcCtl
		call  func(x float64)
		callN func(xs []float64) error
	}{
		{"func", f1, func(x float64) { f1.Call(x) }, func(xs []float64) error { return f1.CallN(xs, make([]float64, len(xs))) }},
		{"func2", f2, func(x float64) { f2.Call(x, x) }, func(xs []float64) error { return f2.CallN(xs, xs, make([]float64, len(xs))) }},
	} {
		f, call, callN := k.f, k.call, k.callN
		t.Run(k.name, func(t *testing.T) {
			milli := func(w float64) int64 { return int64(w*1000 + 0.5) }
			// cost is what one member at x costs: the selected version's
			// work, and the precise function's as well on a monitored member.
			cost := func(x float64, monitored bool) float64 {
				v := f.Offset() // SLA 0.2 selects version 0 in [0, 10]; the offset shifts it
				if x < 0 || x > 10 || v >= 2 {
					return wp // precise selected: a monitored member runs it once
				}
				w := []float64{w0, w1}[v]
				if monitored {
					return wp + w
				}
				return w
			}
			var want, seq int64
			check := func(what string) {
				t.Helper()
				if got := f.Work(); got != float64(want)/1000 {
					t.Fatalf("%s: Work() = %v, want %v (%d thousandths)", what, got, float64(want)/1000, want)
				}
			}
			one := func(x float64) {
				seq++
				want += milli(cost(x, seq%interval == 0))
				call(x)
			}
			batch := func(xs ...float64) {
				total, monitored := 0.0, false
				for _, x := range xs {
					seq++
					m := !monitored && seq%interval == 0 // one monitored member per batch
					monitored = monitored || m
					total += cost(x, m)
				}
				want += milli(total)
				if err := callN(xs); err != nil {
					t.Fatal(err)
				}
			}

			for i := 0; i < 9; i++ {
				one(float64(i))
			}
			check("version 0 calls")
			batch(1, 2, 3)
			batch(1, 2, 20, 3, 4, 5, 6, 7, 8) // spans two multiples of the interval
			check("version 0 batches")
			one(20) // outside the calibrated domain: precise
			check("precise call")

			f.WorkReset()
			want = 0
			check("reset")
			f.IncreaseAccuracy() // version 1
			for i := 0; i < 7; i++ {
				one(float64(i))
			}
			batch(5, 6, 7, 8, 9)
			check("version 1")
			f.IncreaseAccuracy() // past the ladder's top: precise
			for i := 0; i < 5; i++ {
				one(float64(i))
			}
			batch(1, 2, 3, 4, 5, 6)
			check("offset to precise")
			if _, mon, _ := f.Stats(); mon == 0 || want%1000 == 0 {
				t.Fatalf("test lost its point: %d monitored members, %d thousandths", mon, want)
			}
		})
	}
}

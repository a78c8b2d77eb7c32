package core

import (
	"math"
	"testing"

	"green/internal/model"
)

// func2Fixture models f(x, y) = x*y with one sloppy and one tight
// approximation over the grid [0,10)x[0,10).
func func2Fixture(t *testing.T, sla float64, interval int) *Func2 {
	t.Helper()
	grid := model.Grid2D{XLo: 0, XHi: 10, YLo: 0, YHi: 10, NX: 4, NY: 4}
	cal, err := model.NewCalibration2D("mul", 18, []string{"m0", "m1"},
		[]float64{4, 8}, grid)
	for x := 0.5; err == nil && x < 10; x++ {
		for y := 0.5; err == nil && y < 10; y++ {
			if err = cal.AddSample(0, x, y, 0.10); err == nil {
				err = cal.AddSample(1, x, y, 0.01)
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	precise := func(x, y float64) float64 { return x * y }
	v0 := func(x, y float64) float64 { return x * y * 1.10 }
	v1 := func(x, y float64) float64 { return x * y * 1.01 }
	f, err := NewFunc2(Func2Config{
		Name: "mul", Model: m, SLA: sla, SampleInterval: interval,
	}, precise, []Fn2{v0, v1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// oneCellModel is a grid model over [0, 10)² with one cell, where
// version v costs work[v] and loses loss[v].
func oneCellModel(t *testing.T, wp float64, work, loss []float64) *model.FuncModel2D {
	t.Helper()
	cal, err := model.NewCalibration2D("m", wp, make([]string, len(work)), work, model.Grid2D{XHi: 10, YHi: 10, NX: 1, NY: 1})
	for v := 0; err == nil && v < len(loss); v++ {
		err = cal.AddSample(v, 5, 5, loss[v])
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewFunc2Errors(t *testing.T) {
	m := oneCellModel(t, 18, []float64{4}, []float64{0.01})
	id := func(x, y float64) float64 { return x }
	if _, err := NewFunc2(Func2Config{}, id, []Fn2{id}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewFunc2(Func2Config{Model: m}, nil, []Fn2{id}); err == nil {
		t.Error("nil precise accepted")
	}
	if _, err := NewFunc2(Func2Config{Model: m}, id, nil); err == nil {
		t.Error("version mismatch accepted")
	}
	if _, err := NewFunc2(Func2Config{Model: m, SLA: -1}, id, []Fn2{id}); err == nil {
		t.Error("negative SLA accepted")
	}
}

func TestFunc2Selection(t *testing.T) {
	// SLA 0.05: only m1 qualifies.
	f := func2Fixture(t, 0.05, 0)
	if got := f.Call(2, 3); math.Abs(got-6*1.01) > 1e-9 {
		t.Errorf("Call = %v, want m1 result", got)
	}
	// SLA 0.2: m0 is cheaper and qualifies.
	f = func2Fixture(t, 0.2, 0)
	if got := f.Call(2, 3); math.Abs(got-6*1.10) > 1e-9 {
		t.Errorf("Call = %v, want m0 result", got)
	}
	// Outside the grid: precise.
	if got := f.Call(50, 3); got != 150 {
		t.Errorf("outside-grid Call = %v, want precise", got)
	}
	// Tight SLA: precise.
	f = func2Fixture(t, 0.001, 0)
	if got := f.Call(2, 3); got != 6 {
		t.Errorf("tight-SLA Call = %v, want precise", got)
	}
}

// TestFunc2BaseMatchesSelectVersion holds the per-cell versions Func2
// builds once to the model's own per-call rule, on a grid whose cells
// disagree: every probe (edges and points outside included) gets
// SelectVersion's version at every SLA.
func TestFunc2BaseMatchesSelectVersion(t *testing.T) {
	inf := math.Inf(1)
	m := &model.FuncModel2D{
		Name: "uneven", PreciseWork: 18,
		Grid: model.Grid2D{XLo: -1, XHi: 2, YLo: 0, YHi: 4, NX: 3, NY: 2},
		Versions: []model.VersionGrid{
			{Work: 4, Loss: []float64{0.20, 0.01, inf, 0.05, 0.30, 0.02}},
			{Work: 9, Loss: []float64{0.02, 0.01, 0.04, inf, 0.01, 0.50}},
			{Work: 3, Loss: []float64{0.50, 0.04, 0.01, 0.04, inf, 0.01}},
		},
	}
	id := func(x, y float64) float64 { return x + y }
	for _, sla := range []float64{0.01, 0.02, 0.045, 0.25, 1} {
		f, err := NewFunc2(Func2Config{Name: "uneven", Model: m, SLA: sla}, id, []Fn2{id, id, id})
		if err != nil {
			t.Fatal(err)
		}
		for x := -1.5; x <= 2.5; x += 0.25 {
			for y := -0.5; y <= 4.5; y += 0.5 {
				if got, want := f.base(pair{x, y}), m.SelectVersion(x, y, sla); got != want {
					t.Errorf("SLA %v at (%v, %v): version %d, want %d", sla, x, y, got, want)
				}
			}
		}
	}
}

func TestFunc2MonitoredRecalibrates(t *testing.T) {
	f := func2Fixture(t, 0.2, 1) // m0 selected; its real loss is 10%
	// Real loss 0.10 < 0.9*0.2: decrease pressure.
	got := f.Call(2, 3)
	if got != 6 {
		t.Errorf("monitored Call = %v, want precise", got)
	}
	if f.Offset() != -1 {
		t.Errorf("offset = %d, want -1", f.Offset())
	}
	calls, monitored, meanLoss := f.Stats()
	if calls != 1 || monitored != 1 {
		t.Errorf("stats = %d/%d", calls, monitored)
	}
	if math.Abs(meanLoss-0.10) > 1e-9 {
		t.Errorf("meanLoss = %v", meanLoss)
	}
}

func TestFunc2OffsetShiftsSelection(t *testing.T) {
	f := func2Fixture(t, 0.2, 1)
	f.qos = func(p, a float64) float64 { return 1 } // force increase
	f.Call(2, 3)
	if f.Offset() != 1 {
		t.Fatalf("offset = %d, want 1", f.Offset())
	}
	f.setInterval(0)
	if got := f.Call(2, 3); math.Abs(got-6*1.01) > 1e-9 {
		t.Errorf("Call after increase = %v, want m1", got)
	}
}

func TestFunc2DisableEnable(t *testing.T) {
	f := func2Fixture(t, 0.2, 0)
	before := f.State()
	f.DisableApprox()
	if f.ApproxEnabled() {
		t.Error("still enabled")
	}
	if got := f.Call(2, 3); got != 6 {
		t.Errorf("disabled Call = %v", got)
	}
	if err := f.Restore(before); err != nil || !f.ApproxEnabled() {
		t.Errorf("restoring the state from before DisableApprox left it disabled (%v)", err)
	}
	if f.Name() != "mul" {
		t.Error("name wrong")
	}
}

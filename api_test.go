package green_test

import (
	"math"
	"testing"

	"green"
)

// TestFacadeConstructors exercises every public constructor and the
// error sentinels of the facade package.
func TestFacadeConstructors(t *testing.T) {
	// BuildLoopModel + NewLoop.
	lm, err := green.BuildLoopModel("l", []green.CalPoint{
		{Level: 10, QoSLoss: 0.1, Work: 10},
		{Level: 100, QoSLoss: 0.01, Work: 100},
	}, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{Name: "l", Model: lm, SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loop.Level() <= 0 {
		t.Error("loop has no level")
	}
	if err := loop.SetAdaptive(green.AdaptiveParams{M: 5, Period: 5, TargetDelta: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := loop.Adaptive(); got.Period != 5 {
		t.Errorf("SetAdaptive not applied: %+v", got)
	}

	// BuildFuncModel + NewFunc.
	fm, err := green.BuildFuncModel("f", 18, []green.VersionCurve{
		{Name: "v0", Work: 4, Samples: []green.FuncSample{
			{X: 0, Loss: 0.001}, {X: 1, Loss: 0.001},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := green.NewFunc(green.FuncConfig{Name: "f", Model: fm, SLA: 0.01},
		func(x float64) float64 { return x },
		[]green.Fn{func(x float64) float64 { return x + 1e-6 }})
	if err != nil {
		t.Fatal(err)
	}
	if got := fn.Call(0.5); math.Abs(got-0.500001) > 1e-9 {
		t.Errorf("Call = %v, want approximate version", got)
	}
	if len(fn.Ranges()) == 0 {
		t.Error("no ranges")
	}

	// NewApp over both units via the public API.
	app, err := green.NewApp(green.AppConfig{Name: "app", SLA: 0.02}, loop, fn)
	if err != nil {
		t.Fatal(err)
	}
	app.ObserveAppQoS(0.5) // low QoS: the most sensitive unit gets raised
	if app.Observations() != 1 {
		t.Error("observation not recorded")
	}

	// Error sentinels are re-exported.
	if _, err := lm.StaticParams(1e-9); err != green.ErrUnsatisfiable {
		t.Errorf("err = %v, want green.ErrUnsatisfiable", err)
	}
	if _, err := green.BuildLoopModel("x", nil, 1, 1); err != green.ErrNoData {
		t.Errorf("err = %v, want green.ErrNoData", err)
	}
	_, err = green.CombineSearch([][]green.Setting{
		{{Unit: 0, Label: "bad", PredLoss: 1, Speedup: 2}},
	}, 0.001, nil)
	if err != green.ErrNoViableCombo {
		t.Errorf("err = %v, want green.ErrNoViableCombo", err)
	}
}

// TestFacadeExtensions exercises the future-work extensions through the
// facade: Func2, events, and state checkpointing.
func TestFacadeExtensions(t *testing.T) {
	// Func2 over a grid model.
	cal, err := green.NewCalibration2D("mul", 18, []string{"m0"}, []float64{4},
		green.Grid2D{XLo: 0, XHi: 4, YLo: 0, YHi: 4, NX: 2, NY: 2})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.5; x < 4; x++ {
		for y := 0.5; y < 4; y++ {
			if err := cal.AddSample(0, x, y, 0.001); err != nil {
				t.Fatal(err)
			}
		}
	}
	gm, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := green.NewFunc2(green.Func2Config{Name: "mul", Model: gm, SLA: 0.01},
		func(x, y float64) float64 { return x * y },
		[]green.Fn2{func(x, y float64) float64 { return x*y + 1e-4 }})
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Call(1, 2); got != 2.0001 {
		t.Errorf("Func2.Call = %v", got)
	}

	// Events + state.
	var events []green.Event
	lm, err := green.BuildLoopModel("l", []green.CalPoint{
		{Level: 10, QoSLoss: 0.1, Work: 10},
		{Level: 100, QoSLoss: 0.01, Work: 100},
	}, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "l", Model: lm, SLA: 0.05, SampleInterval: 1,
		OnEvent: func(e green.Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := loop.Begin(&piQoS{estimate: func(int) float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < 200 && exec.Continue(i); i++ {
	}
	exec.Finish(i)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	st := loop.State()
	if st.Name != "l" || st.Count != 1 {
		t.Errorf("state = %+v", st)
	}
	data, err := loop.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.RestoreStateJSON(data); err != nil {
		t.Fatal(err)
	}
}

// TestFacadePolicies exercises the policy type through the facade: a
// window of one is Figure 3, a longer one judges its mean loss.
func TestFacadePolicies(t *testing.T) {
	var p green.RecalibratePolicy = &green.WindowedPolicy{Window: 1}
	if d := p.Observe(0.5, 0.02); d != (green.Decision{Action: green.ActIncrease}) {
		t.Errorf("window-of-one decision = %+v", d)
	}
	p = &green.WindowedPolicy{Window: 2}
	if d := p.Observe(1, 0.02); d != (green.Decision{Monitor: true}) {
		t.Errorf("window open decision = %+v", d)
	}
	if d := p.Observe(0, 0.02); d != (green.Decision{Action: green.ActIncrease}) {
		t.Errorf("window close decision = %+v", d)
	}
	_ = green.ActNone
	_ = green.ActDecrease
	_ = green.Adaptive
	_ = green.Static
	if green.PreciseVersion != -1 {
		t.Error("PreciseVersion sentinel changed")
	}
}

// TestFacadeCalibrations drives both calibration collectors through the
// facade into working controllers.
func TestFacadeCalibrations(t *testing.T) {
	lc, err := green.NewLoopCalibration("l", []float64{10, 20}, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.AddRun([]float64{0.1, 0.01}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	lm, err := lc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if lm.PredictLoss(20) != 0.01 {
		t.Error("loop calibration lost data")
	}

	fc, err := green.NewFuncCalibration("f", 18, []string{"v"}, []float64{4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(x float64) float64 { return x * 1.01 }
	if err := fc.Calibrate(func(x float64) float64 { return x },
		[]green.Fn{approx}, []float64{1, 1.2, 1.4}, nil); err != nil {
		t.Fatal(err)
	}
	fm, err := fc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Versions) != 1 {
		t.Error("func calibration lost versions")
	}
}

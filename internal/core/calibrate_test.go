package core

import (
	"fmt"
	"math"
	"testing"

	"green/internal/model"
)

func TestNewLoopCalibrationValidation(t *testing.T) {
	if _, err := NewLoopCalibration("l", nil, 10, 10); err == nil {
		t.Error("empty knots accepted")
	}
	if _, err := NewLoopCalibration("l", []float64{0, 1}, 10, 10); err == nil {
		t.Error("non-positive knot accepted")
	}
	if _, err := NewLoopCalibration("l", []float64{1}, 0, 10); err == nil {
		t.Error("zero base level accepted")
	}
	if _, err := NewLoopCalibration("l", []float64{1}, 10, 0); err == nil {
		t.Error("zero base work accepted")
	}
}

func TestLoopCalibrationSortsKnots(t *testing.T) {
	c, err := NewLoopCalibration("l", []float64{300, 100, 200}, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ks := c.Knots()
	if ks[0] != 100 || ks[1] != 200 || ks[2] != 300 {
		t.Errorf("knots = %v, want sorted", ks)
	}
}

func TestLoopCalibrationBuildAveragesRuns(t *testing.T) {
	c, err := NewLoopCalibration("l", []float64{100, 200}, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddRun([]float64{0.10, 0.04}, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRun([]float64{0.06, 0.02}, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if c.runs != 2 {
		t.Errorf("runs = %d", c.runs)
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictLoss(100); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("avg loss at 100 = %v, want 0.08", got)
	}
	if got := m.PredictLoss(200); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("avg loss at 200 = %v, want 0.03", got)
	}
	// The runs' spread about each mean: 0.02 at 100, 0.01 at 200.
	if got := m.PredictSpread(150); math.Abs(got-0.015) > 1e-12 {
		t.Errorf("spread at 150 = %v, want 0.015", got)
	}
}

// TestLoopCalibrationSpreadOfZeroOneLosses: on 0/1 losses a knot's
// spread is √(p(1−p)).
func TestLoopCalibrationSpreadOfZeroOneLosses(t *testing.T) {
	c, err := NewLoopCalibration("l", []float64{100}, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, loss := range []float64{1, 0, 0, 0} {
		if err := c.AddRun([]float64{loss}, []float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Points[0].Spread, math.Sqrt(0.25*0.75); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestLoopCalibrationAddRunValidation(t *testing.T) {
	c, _ := NewLoopCalibration("l", []float64{100, 200}, 1000, 1000)
	if err := c.AddRun([]float64{0.1}, []float64{100, 200}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := c.AddRun([]float64{-0.1, 0}, []float64{100, 200}); err == nil {
		t.Error("negative loss accepted")
	}
	if err := c.AddRun([]float64{math.NaN(), 0}, []float64{100, 200}); err == nil {
		t.Error("NaN loss accepted")
	}
	if err := c.AddRun([]float64{0.1, 0}, []float64{-1, 200}); err == nil {
		t.Error("negative work accepted")
	}
}

func TestLoopCalibrationBuildRequiresRuns(t *testing.T) {
	c, _ := NewLoopCalibration("l", []float64{100}, 1000, 1000)
	if _, err := c.Build(); err != model.ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestNewFuncCalibrationValidation(t *testing.T) {
	if _, err := NewFuncCalibration("f", 10, nil, nil, 0.1); err == nil {
		t.Error("empty versions accepted")
	}
	if _, err := NewFuncCalibration("f", 10, []string{"a"}, []float64{1, 2}, 0.1); err == nil {
		t.Error("name/work mismatch accepted")
	}
	if _, err := NewFuncCalibration("f", 0, []string{"a"}, []float64{1}, 0.1); err == nil {
		t.Error("zero precise work accepted")
	}
	if _, err := NewFuncCalibration("f", 10, []string{"a"}, []float64{1}, 0); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := NewFuncCalibration("f", 10, []string{"a"}, []float64{0}, 0.1); err == nil {
		t.Error("zero version work accepted")
	}
}

func TestFuncCalibrationBinsAndBuilds(t *testing.T) {
	c, err := NewFuncCalibration("f", 18, []string{"f(3)", "f(4)"}, []float64{4, 5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Two samples in the same bin [0, 0.5): averaged.
	if err := c.AddSample(0, 0.1, 0.02); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(0, 0.3, 0.04); err != nil {
		t.Fatal(err)
	}
	// One sample in bin [0.5, 1).
	if err := c.AddSample(0, 0.7, 0.10); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(1, 0.1, 0.001); err != nil {
		t.Fatal(err)
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Versions) != 2 {
		t.Fatalf("versions = %d", len(m.Versions))
	}
	v0 := m.Versions[0]
	if len(v0.Samples) != 2 {
		t.Fatalf("v0 samples = %d, want 2 bins", len(v0.Samples))
	}
	// Bin centers at 0.25 and 0.75.
	if math.Abs(v0.Samples[0].X-0.25) > 1e-12 || math.Abs(v0.Samples[1].X-0.75) > 1e-12 {
		t.Errorf("bin centers = %v, %v", v0.Samples[0].X, v0.Samples[1].X)
	}
	if math.Abs(v0.Samples[0].Loss-0.03) > 1e-12 {
		t.Errorf("averaged bin loss = %v, want 0.03", v0.Samples[0].Loss)
	}
}

func TestFuncCalibrationNegativeBins(t *testing.T) {
	c, err := NewFuncCalibration("f", 18, []string{"v"}, []float64{4}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(0, -1.5, 0.1); err != nil {
		t.Fatal(err)
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Versions[0].Samples[0].X; math.Abs(got-(-1.5)) > 1e-12 {
		t.Errorf("negative bin center = %v, want -1.5", got)
	}
}

func TestFuncCalibrationAddSampleValidation(t *testing.T) {
	c, _ := NewFuncCalibration("f", 18, []string{"v"}, []float64{4}, 0.5)
	if err := c.AddSample(1, 0, 0); err == nil {
		t.Error("out-of-range version accepted")
	}
	if err := c.AddSample(-1, 0, 0); err == nil {
		t.Error("negative version accepted")
	}
	if err := c.AddSample(0, 0, -1); err == nil {
		t.Error("negative loss accepted")
	}
	if err := c.AddSample(0, 0, math.NaN()); err == nil {
		t.Error("NaN loss accepted")
	}
}

func TestFuncCalibrationBuildRequiresSamples(t *testing.T) {
	c, _ := NewFuncCalibration("f", 18, []string{"v"}, []float64{4}, 0.5)
	if _, err := c.Build(); err == nil {
		t.Error("build without samples accepted")
	}
}

func TestFuncCalibrateDriver(t *testing.T) {
	c, err := NewFuncCalibration("sq", 18, []string{"v0"}, []float64{4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	precise := func(x float64) float64 { return x * x }
	approx := func(x float64) float64 { return x*x + 0.01 }
	inputs := []float64{1, 1.2, 1.4, 1.6, 1.8, 2.0}
	if err := c.Calibrate(precise, []Fn{approx}, inputs, nil); err != nil {
		t.Fatal(err)
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	// At x ~= 1: loss ~= 0.01/1 = 1%.
	if got := m.Versions[0].LossAt(1.0); got <= 0 || got > 0.02 {
		t.Errorf("loss at 1 = %v, want ~0.01", got)
	}
	// At x ~= 2: loss ~= 0.01/4 = 0.25%.
	if got := m.Versions[0].LossAt(2.0); got <= 0 || got > 0.005 {
		t.Errorf("loss at 2 = %v, want ~0.0025", got)
	}
}

// TestFuncCalibrateMatchesAddSample holds Calibrate's dense bins to the
// per-sample AddSample loop it replaced: the same bins with bit-equal
// sums and counts, over pre-existing bins, inputs wider than the dense
// range allows and non-finite ones, and up to an invalid loss, whose
// error both return after keeping the samples before it.
func TestFuncCalibrateMatchesAddSample(t *testing.T) {
	precise := func(x float64) float64 { return math.Exp(x) }
	versions := []Fn{
		func(x float64) float64 { return 1 + x + x*x/2 },
		func(x float64) float64 { return 1 + x + x*x/2 + x*x*x/6 },
	}
	uniform := make([]float64, 500)
	for i := range uniform {
		uniform[i] = -2.5 + 3*math.Mod(float64(i)*0.6180339887, 1)
	}
	cases := map[string]struct {
		prior, inputs []float64
		qos           FuncQoS
	}{
		"dense":        {inputs: uniform},
		"prior bins":   {prior: []float64{-2.45, 0.33, 7}, inputs: uniform},
		"wide":         {inputs: []float64{-1e6, 0.2, 1e6}},
		"non-finite":   {inputs: []float64{0.1, math.Inf(1), 0.3}},
		"nan":          {inputs: []float64{0.1, math.NaN(), 0.3}},
		"empty":        {},
		"invalid loss": {inputs: uniform, qos: func(yp, ya float64) float64 { return ya - yp }},
	}
	for name, tc := range cases {
		got, _ := NewFuncCalibration("exp", 18, []string{"e2", "e3"}, []float64{3, 4}, 0.1)
		want, _ := NewFuncCalibration("exp", 18, []string{"e2", "e3"}, []float64{3, 4}, 0.1)
		for _, c := range []*FuncCalibration{got, want} {
			for _, x := range tc.prior {
				for v := range versions {
					if err := c.AddSample(v, x, 0.5); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		qos := tc.qos
		if qos == nil {
			qos = defaultFuncQoS
		}
		gotErr := got.Calibrate(precise, versions, tc.inputs, tc.qos)
		var wantErr error
	loop:
		for _, x := range tc.inputs {
			yp := precise(x)
			for v := range versions {
				if wantErr = want.AddSample(v, x, qos(yp, versions[v](x))); wantErr != nil {
					break loop
				}
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
		}
		for v := range versions {
			g, w := got.versions[v].bins, want.versions[v].bins
			if len(g) != len(w) {
				t.Errorf("%s: version %d has %d bins, want %d", name, v, len(g), len(w))
			}
			for bin, wb := range w {
				gb := g[bin]
				if gb == nil || gb.n != wb.n || math.Float64bits(gb.lossSum) != math.Float64bits(wb.lossSum) {
					t.Errorf("%s: version %d bin %d = %+v, want %+v", name, v, bin, gb, *wb)
				}
			}
		}
	}
}

func TestFuncCalibrateDriverMismatch(t *testing.T) {
	c, _ := NewFuncCalibration("f", 18, []string{"v"}, []float64{4}, 0.5)
	err := c.Calibrate(func(x float64) float64 { return x }, nil, []float64{1}, nil)
	if err == nil {
		t.Error("implementation count mismatch accepted")
	}
}

// End-to-end property: calibrate a loop whose QoS is the partial sum of a
// convergent series, build the model, create a Loop at an SLA, and verify
// the executed approximation's true loss meets the SLA.
func TestCalibrationToExecutionEndToEnd(t *testing.T) {
	const base = 4096
	// Ground truth: stopping at iteration m of the pi/4 Leibniz series.
	partial := func(n int) float64 {
		sum, sign := 0.0, 1.0
		for i := 0; i < n; i++ {
			sum += sign / float64(2*i+1)
			sign = -sign
		}
		return sum
	}
	exact := partial(base)
	lossAt := func(m int) float64 {
		return math.Abs(partial(m)-exact) / math.Abs(exact)
	}

	knots := []float64{64, 128, 256, 512, 1024, 2048}
	c, err := NewLoopCalibration("pi", knots, base, base)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(knots))
	work := make([]float64, len(knots))
	for i, k := range knots {
		losses[i] = lossAt(int(k))
		work[i] = k
	}
	if err := c.AddRun(losses, work); err != nil {
		t.Fatal(err)
	}
	m, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}

	const sla = 0.001
	l, err := NewLoop(LoopConfig{Name: "pi", Model: m, SLA: sla})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < base; i++ {
		if !e.Continue(i) {
			break
		}
	}
	res := e.Finish(i)
	if !res.Approximated {
		t.Fatal("loop did not approximate")
	}
	if true := lossAt(i); true > sla*1.5 {
		t.Errorf("true loss %v at M=%d grossly exceeds SLA %v", true, i, sla)
	}
	if i == base {
		t.Error("no speedup achieved")
	}
}

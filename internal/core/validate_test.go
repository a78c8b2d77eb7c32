package core

import (
	"math"
	"strings"
	"testing"

	"green/internal/model"
)

// These tests pin the configuration contract: constructors reject
// out-of-range configuration instead of silently misbehaving. No linter
// check repeats it; errdrop flags a caller that drops the error.

func TestNewLoopRejectsBadConfig(t *testing.T) {
	m := testLoopModel(t)
	cases := []struct {
		name string
		cfg  LoopConfig
		want string
	}{
		{"zero SLA", LoopConfig{Model: m, SLA: 0}, "outside (0,1]"},
		{"negative SLA", LoopConfig{Model: m, SLA: -0.1}, "outside (0,1]"},
		{"SLA above one", LoopConfig{Model: m, SLA: 1.5}, "outside (0,1]"},
		{"NaN SLA", LoopConfig{Model: m, SLA: math.NaN()}, "outside (0,1]"},
		{"negative SampleInterval", LoopConfig{Model: m, SLA: 0.05, SampleInterval: -1}, "negative SampleInterval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLoop(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewLoop(%+v) error = %v, want containing %q", tc.cfg, err, tc.want)
			}
		})
	}
	if _, err := NewLoop(LoopConfig{Model: m, SLA: 1}); err != nil {
		t.Fatalf("SLA of exactly 1 must be accepted: %v", err)
	}
}

func TestNewFuncRejectsBadConfig(t *testing.T) {
	fm, err := model.BuildFuncModel("sq", 18, []model.VersionCurve{
		{Name: "v0", Work: 4, Samples: []model.FuncSample{{X: 0, Loss: 0.1}, {X: 10, Loss: 0.1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := func(x float64) float64 { return x }
	rejectsBadConfig(t, func(sla float64, interval, n int) error {
		_, err := NewFunc(FuncConfig{Model: fm, SLA: sla, SampleInterval: interval}, id, make([]Fn, n))
		return err
	})
}

func TestNewFunc2RejectsBadConfig(t *testing.T) {
	gm := oneCellModel(t, 18, []float64{4}, []float64{0.01})
	id := func(x, y float64) float64 { return x }
	rejectsBadConfig(t, func(sla float64, interval, n int) error {
		_, err := NewFunc2(Func2Config{Model: gm, SLA: sla, SampleInterval: interval}, id, make([]Fn2, n))
		return err
	})
}

// rejectsBadConfig runs the construction cases on build, which makes a
// one-version model's function controller with n approximate versions.
func rejectsBadConfig(t *testing.T, build func(sla float64, interval, n int) error) {
	for _, tc := range []struct {
		name        string
		sla         float64
		interval, n int
		want        string
	}{
		{"zero SLA", 0, 0, 1, "outside (0,1]"},
		{"negative SLA", -0.2, 0, 1, "outside (0,1]"},
		{"SLA above one", 1.5, 0, 1, "outside (0,1]"},
		{"negative SampleInterval", 0.1, -1, 1, "negative SampleInterval"},
		{"version count mismatch", 0.1, 0, 2, "but model has"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := build(tc.sla, tc.interval, tc.n); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%+v: error = %v, want containing %q", tc, err, tc.want)
			}
		})
	}
	if err := build(1, 0, 1); err != nil {
		t.Fatalf("SLA of exactly 1 must be accepted: %v", err)
	}
}

func TestNewAppRejectsBadSLA(t *testing.T) {
	for _, sla := range []float64{0, -1, 1.01} {
		if _, err := NewApp(AppConfig{SLA: sla}); err == nil {
			t.Errorf("NewApp accepted SLA %v", sla)
		}
	}
}

func TestSetAdaptiveRejectsIncompleteParams(t *testing.T) {
	l, err := NewLoop(LoopConfig{Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Adaptive()
	cases := []model.AdaptiveParams{
		{},                               // both missing
		{M: 10, Period: 5},               // TargetDelta missing
		{M: 10, TargetDelta: 0.01},       // Period missing
		{Period: -1, TargetDelta: 0.01},  // negative Period
		{Period: 5, TargetDelta: -0.001}, // negative TargetDelta
	}
	for _, p := range cases {
		if err := l.SetAdaptive(p); err == nil {
			t.Errorf("SetAdaptive(%+v) accepted incomplete adaptive parameters", p)
		}
	}
	if got := l.Adaptive(); got != before {
		t.Errorf("rejected SetAdaptive mutated parameters: %+v", got)
	}
	good := model.AdaptiveParams{M: 10, Period: 5, TargetDelta: 0.01}
	if err := l.SetAdaptive(good); err != nil {
		t.Fatalf("valid SetAdaptive rejected: %v", err)
	}
	if got := l.Adaptive(); got != good {
		t.Errorf("SetAdaptive not applied: %+v", got)
	}
}

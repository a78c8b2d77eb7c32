package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func loopPoints() []CalPoint {
	// Loss decays with level; work grows linearly.
	return []CalPoint{
		{Level: 100, QoSLoss: 0.10, Work: 100},
		{Level: 200, QoSLoss: 0.05, Work: 200},
		{Level: 400, QoSLoss: 0.02, Work: 400},
		{Level: 800, QoSLoss: 0.01, Work: 800},
		{Level: 1600, QoSLoss: 0.002, Work: 1600},
	}
}

func mustLoop(t *testing.T) *LoopModel {
	t.Helper()
	m, err := BuildLoopModel("test", loopPoints(), 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildLoopModelErrors(t *testing.T) {
	if _, err := BuildLoopModel("x", nil, 1, 1); err != ErrNoData {
		t.Errorf("empty points err = %v, want ErrNoData", err)
	}
	if _, err := BuildLoopModel("x", loopPoints(), 0, 1); err == nil {
		t.Error("zero base work accepted")
	}
	if _, err := BuildLoopModel("x", loopPoints(), 1, 0); err == nil {
		t.Error("zero base level accepted")
	}
}

func TestBuildLoopModelSortsAndMergesDuplicates(t *testing.T) {
	pts := []CalPoint{
		{Level: 200, QoSLoss: 0.06, Work: 210},
		{Level: 100, QoSLoss: 0.10, Work: 100},
		{Level: 200, QoSLoss: 0.04, Work: 190},
	}
	m, err := BuildLoopModel("dup", pts, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 {
		t.Fatalf("points = %d, want 2 (duplicates merged)", len(m.Points))
	}
	if m.Points[0].Level != 100 || m.Points[1].Level != 200 {
		t.Errorf("levels not sorted: %+v", m.Points)
	}
	if math.Abs(m.Points[1].QoSLoss-0.05) > 1e-12 {
		t.Errorf("duplicate loss not averaged: %v", m.Points[1].QoSLoss)
	}
	if math.Abs(m.Points[1].Work-200) > 1e-12 {
		t.Errorf("duplicate work not averaged: %v", m.Points[1].Work)
	}
}

func TestPredictLossInterpolatesAndClamps(t *testing.T) {
	m := mustLoop(t)
	if got := m.PredictLoss(100); got != 0.10 {
		t.Errorf("loss at first knot = %v, want 0.10", got)
	}
	if got := m.PredictLoss(150); math.Abs(got-0.075) > 1e-12 {
		t.Errorf("interpolated loss = %v, want 0.075", got)
	}
	if got := m.PredictLoss(10); got != 0.10 {
		t.Errorf("below-range loss = %v, want clamp to 0.10", got)
	}
	if got := m.PredictLoss(99999); got != 0.002 {
		t.Errorf("above-range loss = %v, want clamp to 0.002", got)
	}
}

func TestMonotoneEnvelopeSmoothsNoise(t *testing.T) {
	pts := []CalPoint{
		{Level: 100, QoSLoss: 0.10, Work: 100},
		{Level: 200, QoSLoss: 0.02, Work: 200}, // noisy dip
		{Level: 300, QoSLoss: 0.05, Work: 300}, // bounce back up
		{Level: 400, QoSLoss: 0.01, Work: 400},
	}
	m, err := BuildLoopModel("noisy", pts, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Envelope raises the dip at 200 to 0.05 so loss is non-increasing.
	if got := m.PredictLoss(200); got != 0.05 {
		t.Errorf("envelope loss at 200 = %v, want 0.05", got)
	}
	prev := math.Inf(1)
	for l := 100.0; l <= 400; l += 10 {
		cur := m.PredictLoss(l)
		if cur > prev+1e-12 {
			t.Fatalf("envelope not monotone at level %v: %v > %v", l, cur, prev)
		}
		prev = cur
	}
}

func TestSpeedup(t *testing.T) {
	m := mustLoop(t)
	if got := m.Speedup(100); math.Abs(got-32) > 1e-9 {
		t.Errorf("speedup at 100 = %v, want 32", got)
	}
	if got := m.Speedup(1600); math.Abs(got-2) > 1e-9 {
		t.Errorf("speedup at 1600 = %v, want 2", got)
	}
}

func TestStaticParams(t *testing.T) {
	m := mustLoop(t)
	// SLA exactly at a knot.
	got, err := m.StaticParams(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 1e-9 {
		t.Errorf("M(0.05) = %v, want 200", got)
	}
	// SLA between knots: interpolated level between 200 (0.05) and 400
	// (0.02): sla=0.035 -> halfway = 300.
	got, err = m.StaticParams(0.035)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-300) > 1e-9 {
		t.Errorf("M(0.035) = %v, want 300", got)
	}
	// Very permissive SLA: the first knot suffices.
	got, err = m.StaticParams(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("M(0.5) = %v, want 100", got)
	}
	// Unsatisfiable SLA.
	if _, err := m.StaticParams(0.001); err != ErrUnsatisfiable {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestStaticParamsMonotoneInSLA(t *testing.T) {
	m := mustLoop(t)
	prev := math.Inf(1)
	for sla := 0.002; sla <= 0.2; sla += 0.002 {
		lvl, err := m.StaticParams(sla)
		if err != nil {
			t.Fatalf("sla %v: %v", sla, err)
		}
		if lvl > prev+1e-9 {
			t.Fatalf("M not non-increasing in SLA at %v: %v > %v", sla, lvl, prev)
		}
		prev = lvl
	}
}

func TestAdaptiveParams(t *testing.T) {
	m := mustLoop(t)
	ap, err := m.AdaptiveParamsFor(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ap.M <= 0 || ap.M >= 200 {
		t.Errorf("adaptive floor M = %v, want in (0, 200)", ap.M)
	}
	if ap.Period <= 0 {
		t.Errorf("period = %v, want > 0", ap.Period)
	}
	if ap.TargetDelta < 0 {
		t.Errorf("target delta = %v, want >= 0", ap.TargetDelta)
	}
	if _, err := m.AdaptiveParamsFor(0.0001); err != ErrUnsatisfiable {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestLevels(t *testing.T) {
	m := mustLoop(t)
	ls := m.Levels()
	if len(ls) != 5 || ls[0] != 100 || ls[4] != 1600 {
		t.Errorf("Levels = %v", ls)
	}
}

func TestLoopModelJSONRoundTrip(t *testing.T) {
	m := mustLoop(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 LoopModel
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Name != "test" || m2.BaseWork != 3200 {
		t.Errorf("round trip lost metadata: %+v", m2)
	}
	// Envelope must be rebuilt: inversion should still work.
	lvl, err := m2.StaticParams(0.05)
	if err != nil || math.Abs(lvl-200) > 1e-9 {
		t.Errorf("round-tripped StaticParams = (%v, %v)", lvl, err)
	}
}

func TestLoopModelUnmarshalRejectsEmpty(t *testing.T) {
	var m LoopModel
	if err := json.Unmarshal([]byte(`{"name":"x","points":[]}`), &m); err == nil {
		t.Error("empty points accepted on unmarshal")
	}
}

func funcModelFixture(t *testing.T) *FuncModel {
	t.Helper()
	// Two approximate versions of a function of x in [0, 2]:
	// v0 (cheap): loss grows with x; v1 (mid): loss grows slower.
	v0 := VersionCurve{Name: "f(3)", Work: 4, Samples: []FuncSample{
		{X: 0, Loss: 0.001}, {X: 0.5, Loss: 0.005}, {X: 1.0, Loss: 0.03},
		{X: 1.5, Loss: 0.2}, {X: 2.0, Loss: 0.6},
	}}
	v1 := VersionCurve{Name: "f(4)", Work: 5, Samples: []FuncSample{
		{X: 0, Loss: 0.0001}, {X: 0.5, Loss: 0.001}, {X: 1.0, Loss: 0.008},
		{X: 1.5, Loss: 0.04}, {X: 2.0, Loss: 0.2},
	}}
	m, err := BuildFuncModel("f", 18, []VersionCurve{v0, v1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildFuncModelErrors(t *testing.T) {
	if _, err := BuildFuncModel("f", 18, nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	if _, err := BuildFuncModel("f", 0, []VersionCurve{{Name: "v", Work: 1,
		Samples: []FuncSample{{X: 0, Loss: 0}}}}); err == nil {
		t.Error("zero precise work accepted")
	}
	if _, err := BuildFuncModel("f", 18, []VersionCurve{{Name: "v", Work: 1}}); err == nil {
		t.Error("version without samples accepted")
	}
	if _, err := BuildFuncModel("f", 18, []VersionCurve{{Name: "v", Work: 0,
		Samples: []FuncSample{{X: 0, Loss: 0}}}}); err == nil {
		t.Error("zero-work version accepted")
	}
}

func TestVersionCurveLossAt(t *testing.T) {
	v := VersionCurve{Name: "v", Work: 1, Samples: []FuncSample{
		{X: 0, Loss: 0.1}, {X: 1, Loss: 0.3},
	}}
	if got := v.LossAt(0.5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("LossAt(0.5) = %v, want 0.2", got)
	}
	if got := v.LossAt(-5); got != 0.1 {
		t.Errorf("clamp low = %v, want 0.1", got)
	}
	if got := v.LossAt(5); got != 0.3 {
		t.Errorf("clamp high = %v, want 0.3", got)
	}
	empty := VersionCurve{}
	if got := empty.LossAt(0); !math.IsInf(got, 1) {
		t.Errorf("empty curve loss = %v, want +Inf", got)
	}
}

func TestFuncModelRanges(t *testing.T) {
	m := funcModelFixture(t)
	// SLA 0.01: near x=0 the cheap version qualifies; mid x only the more
	// precise version; at large x neither (precise).
	ranges := m.Ranges(0.01)
	if len(ranges) < 2 {
		t.Fatalf("ranges = %+v, want multiple segments", ranges)
	}
	// The first range must choose the cheapest version 0.
	if ranges[0].Version != 0 {
		t.Errorf("first range version = %s, want f(3)", m.VersionName(ranges[0].Version))
	}
	// The final range at x=2 must be precise (losses 0.6/0.2 > 0.01).
	last := ranges[len(ranges)-1]
	if last.Version != PreciseVersion {
		t.Errorf("last range version = %s, want precise", m.VersionName(last.Version))
	}
	// Ranges must tile the calibrated domain contiguously.
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo != ranges[i-1].Hi {
			t.Errorf("gap between ranges %d and %d: %+v", i-1, i, ranges)
		}
	}
	if ranges[0].Lo != 0 || last.Hi != 2 {
		t.Errorf("domain coverage wrong: %+v", ranges)
	}
}

func TestFuncModelRangesImpossibleSLA(t *testing.T) {
	m := funcModelFixture(t)
	for _, r := range m.Ranges(0.000001) {
		if r.Version != PreciseVersion {
			t.Errorf("impossible SLA selected version %s over %+v",
				m.VersionName(r.Version), r)
		}
	}
}

func TestFuncModelRangesGenerousSLA(t *testing.T) {
	m := funcModelFixture(t)
	ranges := m.Ranges(1.0)
	// Everything satisfiable by the cheapest version.
	if len(ranges) != 1 || ranges[0].Version != 0 {
		t.Errorf("generous SLA ranges = %+v", ranges)
	}
}

func TestVersionNameAndSpeedup(t *testing.T) {
	m := funcModelFixture(t)
	if m.VersionName(PreciseVersion) != "precise" {
		t.Error("precise name wrong")
	}
	if m.VersionName(0) != "f(3)" {
		t.Error("version 0 name wrong")
	}
	if m.VersionName(7) == "f(3)" {
		t.Error("invalid index must not alias a real version")
	}
}

// Property: for random monotone-decreasing calibration data, StaticParams
// always returns a level whose predicted loss meets the SLA.
func TestStaticParamsSatisfiesSLAProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(10)
		pts := make([]CalPoint, n)
		loss := 0.5 * rng.Float64()
		for i := 0; i < n; i++ {
			pts[i] = CalPoint{
				Level:   float64((i + 1) * 100),
				QoSLoss: loss,
				Work:    float64((i + 1) * 100),
			}
			loss *= 0.3 + 0.6*rng.Float64() // decay
		}
		m, err := BuildLoopModel("prop", pts, float64(n*200), float64(n*200))
		if err != nil {
			t.Fatal(err)
		}
		sla := pts[n-1].QoSLoss + rng.Float64()*0.5
		lvl, err := m.StaticParams(sla)
		if err != nil {
			t.Fatalf("sla %v unsatisfiable though last loss %v", sla, pts[n-1].QoSLoss)
		}
		if pred := m.PredictLoss(lvl); pred > sla+1e-9 {
			t.Fatalf("predicted loss %v at level %v exceeds sla %v", pred, lvl, sla)
		}
	}
}

// Property: Ranges always tiles the calibrated domain without gaps or
// overlap and never selects an out-of-bounds version.
func TestRangesTileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		nv := 1 + rng.Intn(3)
		versions := make([]VersionCurve, nv)
		for v := 0; v < nv; v++ {
			ns := 2 + rng.Intn(6)
			samples := make([]FuncSample, ns)
			for s := 0; s < ns; s++ {
				samples[s] = FuncSample{X: float64(s), Loss: rng.Float64() * 0.2}
			}
			versions[v] = VersionCurve{
				Name: "v", Work: 1 + rng.Float64()*5, Samples: samples,
			}
		}
		m, err := BuildFuncModel("prop", 20, versions)
		if err != nil {
			t.Fatal(err)
		}
		sla := rng.Float64() * 0.25
		ranges := m.Ranges(sla)
		if len(ranges) == 0 {
			t.Fatal("no ranges for non-empty model")
		}
		for i, r := range ranges {
			if r.Version != PreciseVersion && (r.Version < 0 || r.Version >= nv) {
				t.Fatalf("bad version in range: %+v", r)
			}
			if i > 0 && ranges[i].Lo != ranges[i-1].Hi {
				t.Fatalf("ranges not contiguous: %+v", ranges)
			}
			if r.Hi < r.Lo {
				t.Fatalf("inverted range: %+v", r)
			}
		}
	}
}

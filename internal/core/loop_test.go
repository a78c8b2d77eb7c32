package core

import (
	"math"
	"testing"

	"green/internal/model"
)

// testLoopModel builds a simple decaying-loss model: levels 100..1600,
// base 3200 iterations.
func testLoopModel(t *testing.T) *model.LoopModel {
	t.Helper()
	pts := []model.CalPoint{
		{Level: 100, QoSLoss: 0.10, Work: 100},
		{Level: 200, QoSLoss: 0.05, Work: 200},
		{Level: 400, QoSLoss: 0.02, Work: 400},
		{Level: 800, QoSLoss: 0.01, Work: 800},
		{Level: 1600, QoSLoss: 0.002, Work: 1600},
	}
	m, err := model.BuildLoopModel("loop", pts, 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fakeQoS is a scriptable LoopQoS: Loss returns lossValue; it records the
// iterations at which Record/Loss were called.
type fakeQoS struct {
	lossValue  float64
	recordedAt []int
	lossAt     []int
	deltas     []float64 // consumed by Delta front to back
}

func (f *fakeQoS) Record(iter int) { f.recordedAt = append(f.recordedAt, iter) }
func (f *fakeQoS) Loss(iter int) float64 {
	f.lossAt = append(f.lossAt, iter)
	return f.lossValue
}
func (f *fakeQoS) Delta(iter int) float64 {
	if len(f.deltas) == 0 {
		return 0
	}
	d := f.deltas[0]
	f.deltas = f.deltas[1:]
	return d
}

// runLoop drives a LoopExec through at most maxIter iterations and
// returns the result plus the number of body executions.
func runLoop(t *testing.T, e *LoopExec, maxIter int) (Result, int) {
	t.Helper()
	i := 0
	for ; i < maxIter; i++ {
		if !e.Continue(i) {
			break
		}
	}
	return e.Finish(i), i
}

func TestNewLoopErrors(t *testing.T) {
	if _, err := NewLoop(LoopConfig{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewLoop(LoopConfig{Model: testLoopModel(t), SLA: -1}); err == nil {
		t.Error("negative SLA accepted")
	}
}

func TestNewLoopDerivesLevelFromSLA(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Level(); math.Abs(got-200) > 1e-9 {
		t.Errorf("level = %v, want 200", got)
	}
}

func TestNewLoopUnsatisfiableSLADisables(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if l.ApproxEnabled() {
		t.Error("unsatisfiable SLA should start disabled")
	}
	q := &fakeQoS{}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if res.Approximated || iters != 3200 {
		t.Errorf("disabled loop terminated early: %+v after %d iters", res, iters)
	}
}

func TestStaticLoopTerminatesAtM(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if !res.Approximated {
		t.Fatal("loop did not approximate")
	}
	if iters != 200 {
		t.Errorf("terminated after %d iterations, want 200", iters)
	}
	if res.StoppedAt != 200 {
		t.Errorf("StoppedAt = %d, want 200", res.StoppedAt)
	}
	if res.Monitored {
		t.Error("first execution unexpectedly monitored")
	}
	if len(q.recordedAt) != 0 {
		t.Error("Record must not be called on non-monitored runs")
	}
}

func TestMonitoredExecutionRunsFullAndMeasures(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{lossValue: 0.04}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if iters != 3200 {
		t.Fatalf("monitored run stopped at %d, want full 3200", iters)
	}
	if !res.Monitored {
		t.Fatal("run not marked monitored")
	}
	if res.Approximated {
		t.Error("monitored run must not be marked approximated")
	}
	if len(q.recordedAt) != 1 || q.recordedAt[0] != 200 {
		t.Errorf("Record calls = %v, want [200]", q.recordedAt)
	}
	if len(q.lossAt) != 1 || q.lossAt[0] != 3200 {
		t.Errorf("Loss calls = %v, want [3200]", q.lossAt)
	}
	if res.Loss != 0.04 {
		t.Errorf("Loss = %v, want 0.04", res.Loss)
	}
	// Loss 0.04 is within [0.045, 0.05)? No: 0.04 < 0.9*0.05=0.045 so
	// decrease accuracy: level drops by one step (100).
	if res.Recalibrated != ActDecrease {
		t.Errorf("action = %v, want decrease", res.Recalibrated)
	}
	if got := l.Level(); math.Abs(got-100) > 1e-9 {
		t.Errorf("level after decrease = %v, want 100", got)
	}
}

func TestRecalibrationIncreasesOnHighLoss(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{lossValue: 0.5}
	e, _ := l.Begin(q)
	res, _ := runLoop(t, e, 3200)
	if res.Recalibrated != ActIncrease {
		t.Fatalf("action = %v, want increase", res.Recalibrated)
	}
	if got := l.Level(); math.Abs(got-300) > 1e-9 {
		t.Errorf("level after increase = %v, want 300", got)
	}
}

func TestRecalibrationClampsAtBaseAndMin(t *testing.T) {
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: m, SLA: 0.05, SampleInterval: 1, Step: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Huge step up clamps at BaseLevel.
	q := &fakeQoS{lossValue: 1}
	e, _ := l.Begin(q)
	runLoop(t, e, 3200)
	if got := l.Level(); got != 3200 {
		t.Errorf("level clamped = %v, want 3200 (base)", got)
	}
	// Huge step down clamps at MinLevel (first knot = 100).
	q = &fakeQoS{lossValue: 0}
	e, _ = l.Begin(q)
	runLoop(t, e, 3200)
	if got := l.Level(); got != 100 {
		t.Errorf("level clamped down = %v, want 100", got)
	}
}

func TestSampleIntervalSelectsEveryKth(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 3,
		// Loss in the no-change band so levels stay put.
		Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	monitoredCount := 0
	for run := 1; run <= 9; run++ {
		q := &fakeQoS{lossValue: 0.047}
		e, _ := l.Begin(q)
		res, _ := runLoop(t, e, 3200)
		if res.Monitored {
			monitoredCount++
			if run%3 != 0 {
				t.Errorf("run %d monitored; want only multiples of 3", run)
			}
		}
	}
	if monitoredCount != 3 {
		t.Errorf("monitored %d of 9 runs, want 3", monitoredCount)
	}
	execs, mon, meanLoss := l.Stats()
	if execs != 9 || mon != 3 {
		t.Errorf("stats = (%d, %d), want (9, 3)", execs, mon)
	}
	if math.Abs(meanLoss-0.047) > 1e-9 {
		t.Errorf("meanLoss = %v, want 0.047", meanLoss)
	}
}

func TestAdaptiveLoopStopsOnDiminishingReturns(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	ap := l.Adaptive()
	if ap.Period <= 0 {
		t.Fatalf("no adaptive params derived: %+v", ap)
	}
	// Script deltas: big improvements early, then nothing.
	q := &fakeQoS{deltas: []float64{
		ap.TargetDelta + 1, ap.TargetDelta + 1, 0, 0, 0, 0, 0, 0,
	}}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if !res.Approximated {
		t.Fatal("adaptive loop did not terminate early")
	}
	if iters >= 3200 {
		t.Fatal("adaptive loop ran to completion despite zero improvement")
	}
	// It must run at least the floor M and at least the periods with
	// improvement.
	if float64(iters) < ap.M {
		t.Errorf("stopped at %d, below floor %v", iters, ap.M)
	}
}

func TestAdaptiveRequiresDeltaQoS(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	type onlyLoop struct{ LoopQoS }
	if _, err := l.Begin(onlyLoop{&fakeQoS{}}); err == nil {
		t.Error("adaptive Begin accepted a LoopQoS without Delta")
	}
}

func TestBeginNilQoS(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Begin(nil); err == nil {
		t.Error("nil qos accepted")
	}
}

func TestDisabledLoopNeverApproximates(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Disabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{}
	e, _ := l.Begin(q)
	res, iters := runLoop(t, e, 1000)
	if res.Approximated || iters != 1000 {
		t.Errorf("disabled loop approximated: %+v", res)
	}
}

func TestSetLevelOverride(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	l.SetLevel(640)
	q := &fakeQoS{}
	e, _ := l.Begin(q)
	_, iters := runLoop(t, e, 3200)
	if iters != 640 {
		t.Errorf("terminated at %d, want 640 after SetLevel", iters)
	}
}

func TestLoopUnitInterface(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "u", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "u" {
		t.Error("name wrong")
	}
	lvl := l.Level()
	if !l.IncreaseAccuracy() {
		t.Error("IncreaseAccuracy reported no change")
	}
	if l.Level() <= lvl {
		t.Error("IncreaseAccuracy did not raise level")
	}
	if !l.DecreaseAccuracy() {
		t.Error("DecreaseAccuracy reported no change")
	}
	if s := l.Sensitivity(); s <= 0 {
		t.Errorf("Sensitivity = %v, want > 0 for decaying loss curve", s)
	}
	before := l.State()
	l.DisableApprox()
	if l.ApproxEnabled() {
		t.Error("DisableApprox did not disable")
	}
	if err := l.Restore(before); err != nil || !l.ApproxEnabled() {
		t.Errorf("restoring the state from before DisableApprox left it disabled (%v)", err)
	}
}

func TestLoopAccuracyLadderEndsReportNoChange(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Step: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.IncreaseAccuracy() // clamp to base
	if l.IncreaseAccuracy() {
		t.Error("increase at base level reported change")
	}
	l.DecreaseAccuracy() // clamp to min
	if l.DecreaseAccuracy() {
		t.Error("decrease at min level reported change")
	}
}

// Reproduces the Figure 14 scenario in miniature: an imperfect model
// (level far too low for the target), recalibration pressure raises the
// level step by step until the observed loss meets the SLA.
func TestRecalibrationConvergesFromImperfectModel(t *testing.T) {
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: m, SLA: 0.02, SampleInterval: 1, Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.SetLevel(100) // imperfect model says 100; true requirement is 400

	// Simulated ground truth: loss observed at level L follows the model
	// curve.
	for i := 0; i < 50; i++ {
		q := &fakeQoS{lossValue: m.PredictLoss(l.Level())}
		e, _ := l.Begin(q)
		runLoop(t, e, 3200)
		if m.PredictLoss(l.Level()) <= 0.02 {
			break
		}
	}
	if got := m.PredictLoss(l.Level()); got > 0.02 {
		t.Errorf("recalibration failed to converge: loss %v at level %v", got, l.Level())
	}
	if l.Level() < 400-1e-9 {
		t.Errorf("converged level %v below true requirement 400", l.Level())
	}
}

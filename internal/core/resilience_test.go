package core

import (
	"math"
	"testing"

	"green/internal/model"
)

// panicQoS is a fakeQoS whose callbacks can be scripted to panic.
type panicQoS struct {
	fakeQoS
	panicRecord bool
	panicLoss   bool
}

func (p *panicQoS) Record(iter int) {
	if p.panicRecord {
		panic("qos: record exploded")
	}
	p.fakeQoS.Record(iter)
}

func (p *panicQoS) Loss(iter int) float64 {
	if p.panicLoss {
		panic("qos: loss exploded")
	}
	return p.fakeQoS.Loss(iter)
}

// breakerLoop builds a loop monitored on every execution, with the
// default breaker (threshold 3, cool-down 16 executions).
func breakerLoop(t *testing.T) *Loop {
	t.Helper()
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1,
		Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// drive runs one full execution of the loop with the given QoS.
func drive(t *testing.T, l *Loop, q LoopQoS) Result {
	t.Helper()
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runLoop(t, e, 3200)
	return res
}

func TestRecordPanicContained(t *testing.T) {
	l := breakerLoop(t)
	res := drive(t, l, &panicQoS{panicRecord: true})
	if !res.ContainedPanic {
		t.Error("ContainedPanic not reported")
	}
	if res.Monitored != true {
		t.Error("execution should still report monitored")
	}
	_, monitored, _ := l.Stats()
	if monitored != 0 {
		t.Errorf("failed observation counted into stats: monitored = %d", monitored)
	}
	b := l.Breaker()
	if b.ContainedPanics != 1 || b.ConsecutiveFailures != 1 {
		t.Errorf("breaker = %+v", b)
	}
	if b.State != BreakerClosed {
		t.Errorf("one panic tripped the breaker: %v", b.State)
	}
}

func TestLossPanicContained(t *testing.T) {
	l := breakerLoop(t)
	res := drive(t, l, &panicQoS{panicLoss: true})
	if !res.ContainedPanic {
		t.Error("ContainedPanic not reported for a Loss panic")
	}
	if got := l.Breaker().ContainedPanics; got != 1 {
		t.Errorf("contained = %d", got)
	}
}

func TestDeltaPanicContained(t *testing.T) {
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: m, SLA: 0.05, Mode: Adaptive, SampleInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetAdaptive(model.AdaptiveParams{M: 10, Period: 5, TargetDelta: 0.1}); err != nil {
		t.Fatal(err)
	}
	q := &panicDeltaQoS{}
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runLoop(t, e, 200)
	if !res.ContainedPanic {
		t.Error("Delta panic not contained on the monitored path")
	}
}

// panicDeltaQoS panics inside the adaptive Delta callback.
type panicDeltaQoS struct{ fakeQoS }

func (p *panicDeltaQoS) Delta(int) float64 { panic("qos: delta exploded") }

func TestBreakerTripsAndForcesPrecise(t *testing.T) {
	l := breakerLoop(t)
	bad := &panicQoS{panicRecord: true}
	for i := 0; i < 3; i++ {
		drive(t, l, bad)
	}
	b := l.Breaker()
	if b.State != BreakerOpen || b.Trips != 1 {
		t.Fatalf("breaker after 3 consecutive panics = %+v", b)
	}
	// While open: forced precise, monitoring suspended — the loop runs to
	// its natural end and the faulty callbacks never run.
	before := b.ContainedPanics
	e, err := l.Begin(bad)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if res.Approximated || res.Monitored || res.ContainedPanic {
		t.Errorf("open-breaker execution = %+v", res)
	}
	if iters != 3200 {
		t.Errorf("open-breaker execution stopped early at %d", iters)
	}
	if got := l.Breaker().ContainedPanics; got != before {
		t.Errorf("callbacks ran while breaker open: contained %d -> %d", before, got)
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	l := breakerLoop(t)
	bad := &panicQoS{panicRecord: true}
	for i := 0; i < 3; i++ {
		drive(t, l, bad)
	}
	// Burn through the cool-down (16 executions for SampleInterval 1)
	// with a now-healthy QoS; the first execution past the cool-down is
	// the half-open probe and closes the breaker.
	good := &fakeQoS{lossValue: 0.04}
	for i := 0; i < 20 && l.Breaker().State != BreakerClosed; i++ {
		drive(t, l, good)
	}
	b := l.Breaker()
	if b.State != BreakerClosed {
		t.Fatalf("breaker never closed after recovery: %+v", b)
	}
	if b.ConsecutiveFailures != 0 {
		t.Errorf("failures not reset: %+v", b)
	}
	// Approximation and monitoring resume: a fresh monitored execution is
	// counted again.
	_, monBefore, _ := l.Stats()
	res := drive(t, l, good)
	if !res.Monitored || res.ContainedPanic {
		t.Errorf("post-recovery execution = %+v", res)
	}
	if _, monAfter, _ := l.Stats(); monAfter != monBefore+1 {
		t.Errorf("monitored count %d -> %d", monBefore, monAfter)
	}
}

func TestBreakerFailedProbeReopensWithEscalatedCooldown(t *testing.T) {
	l := breakerLoop(t)
	bad := &panicQoS{panicRecord: true}
	for i := 0; i < 3; i++ {
		drive(t, l, bad)
	}
	if l.Breaker().State != BreakerOpen {
		t.Fatal("precondition: breaker open")
	}
	// Keep the callbacks broken through the first probe: it must fail and
	// re-open rather than close.
	sawProbeFail := false
	for i := 0; i < 40; i++ {
		res := drive(t, l, bad)
		if res.ContainedPanic {
			sawProbeFail = true
			break
		}
	}
	if !sawProbeFail {
		t.Fatal("no half-open probe fired within 40 executions")
	}
	b := l.Breaker()
	if b.State != BreakerOpen || b.Trips != 2 {
		t.Errorf("after failed probe: %+v", b)
	}
	// Doubled cool-down: the next probe takes ~32 executions, so 20 more
	// must all be forced precise.
	for i := 0; i < 20; i++ {
		if res := drive(t, l, bad); res.Monitored || res.ContainedPanic {
			t.Fatalf("probe after %d executions: cool-down did not escalate", i)
		}
	}
}

// TestRestoreResetsBreaker: restoring onto a live controller whose
// breaker is open closes it with the restored interval's cool-down,
// max(16, 4·interval), as a fresh controller built with that interval
// starts; ContainedPanics and Trips keep counting. A count-0 snapshot
// must not leave the breaker judging its cool-down from the old open-at
// count, and interval 100 onto a controller built with 1 must back off
// 400 executions, not 16.
func TestRestoreResetsBreaker(t *testing.T) {
	type row struct {
		Controller
		exec    func(panics bool)
		restore func(count, interval int64) error
	}
	rows := map[string]func(t *testing.T) row{
		"Loop": func(t *testing.T) row {
			l := breakerLoop(t)
			return row{l, func(panics bool) {
				drive(t, l, &panicQoS{fakeQoS: fakeQoS{lossValue: 0.04}, panicRecord: panics})
			}, func(count, interval int64) error {
				s := l.State()
				s.Count, s.Interval = count, int(interval)
				return l.Restore(s)
			}}
		},
	}
	for _, k := range funcKinds {
		rows[k.name] = func(t *testing.T) row {
			f := k.build(t, 0.2, 1)
			healthy := *f.qos
			return row{f, func(panics bool) {
				if *f.qos = healthy; panics {
					*f.qos = func(p, a float64) float64 { panic("qos comparator exploded") }
				}
				f.call()
			}, func(count, interval int64) error {
				s := f.State()
				s.Count, s.Interval = count, interval
				return f.Restore(s)
			}}
		}
	}
	for name, build := range rows {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			for i := 0; i < 3; i++ {
				c.exec(true)
			}
			if b := c.Breaker(); b.State != BreakerOpen {
				t.Fatalf("breaker after 3 panics = %+v", b)
			}
			if err := c.restore(0, 100); err != nil {
				t.Fatal(err)
			}
			if b := c.Breaker(); b != (BreakerStats{State: BreakerClosed, ContainedPanics: 3, Trips: 1}) {
				t.Fatalf("breaker after restore = %+v, want closed with its tallies", b)
			}
			for i := 0; i < 300; i++ { // monitored at 100, 200 and 300: open at 300
				c.exec(true)
			}
			if b := c.Breaker(); b.State != BreakerOpen || b.Trips != 2 {
				t.Fatalf("breaker after 3 more panics = %+v", b)
			}
			for i := 1; i < 400; i++ {
				if c.exec(false); c.Breaker().State != BreakerOpen {
					t.Fatalf("probe %d executions after the trip, want 400 (4 × interval 100)", i)
				}
			}
			if c.exec(false); c.Breaker().State != BreakerClosed {
				t.Fatalf("no probe closed the breaker 400 executions after the trip: %+v", c.Breaker())
			}
		})
	}
}

func TestFuncVersionPanicContained(t *testing.T) { versionPanicContained(t, funcKinds[0]) }
func TestFunc2ApproxPanicContained(t *testing.T) { versionPanicContained(t, funcKinds[1]) }

func versionPanicContained(t *testing.T, k funcKind) {
	f := k.build(t, 0.2, 1)
	f.breakApprox()
	if got := f.call(); got != f.precise {
		t.Errorf("%s: monitored call with panicking version = %v, want precise %v", k.name, got, f.precise)
	}
	if b := f.Breaker(); b.ContainedPanics != 1 {
		t.Errorf("%s: breaker = %+v", k.name, b)
	}
	// The failed observation must not enter the monitored statistics.
	if _, monitored, _ := f.Stats(); monitored != 0 {
		t.Errorf("%s: failed observation counted: monitored = %d", k.name, monitored)
	}
}

func TestFuncQoSPanicContained(t *testing.T)                 { qosPanicContained(t, funcKinds[0]) }
func TestFunc2QoSPanicContainedAndBreakerTrips(t *testing.T) { qosPanicContained(t, funcKinds[1]) }

func qosPanicContained(t *testing.T, k funcKind) {
	f := k.build(t, 0.2, 1)
	*f.qos = func(p, a float64) float64 { panic("qos comparator exploded") }
	// Every call is monitored; each contained panic charges the
	// breaker (threshold defaults to 3).
	for i := 0; i < 3; i++ {
		if got := f.call(); got != f.precise {
			t.Fatalf("%s: call %d = %v, want precise %v", k.name, i, got, f.precise)
		}
	}
	if b := f.Breaker(); b.State != BreakerOpen || b.ContainedPanics != 3 || b.Trips != 1 {
		t.Fatalf("%s: breaker = %+v, want open after 3 contained panics", k.name, b)
	}
	// Open breaker: forced precise, monitoring suspended — the faulty
	// comparator must not run again.
	_, before, _ := f.Stats()
	if got := f.call(); got != f.precise {
		t.Errorf("%s: open-breaker call = %v, want precise", k.name, got)
	}
	if _, m, _ := f.Stats(); m != before {
		t.Errorf("%s: open breaker still monitored: %d -> %d", k.name, before, m)
	}
}

func TestFuncBreakerTripsAndRecovers(t *testing.T) {
	mkSamples := func(loss float64) []model.FuncSample {
		return []model.FuncSample{{X: 0, Loss: loss}, {X: 10, Loss: loss}}
	}
	fm, err := model.BuildFuncModel("sq", 18, []model.VersionCurve{
		{Name: "sq(0)", Work: 4, Samples: mkSamples(0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy := false
	precise := func(x float64) float64 { return x * x }
	v0 := func(x float64) float64 {
		if !healthy {
			panic("approx version exploded")
		}
		return x * x * 1.01
	}
	f, err := NewFunc(FuncConfig{
		Name: "sq", Model: fm, SLA: 0.2, SampleInterval: 1,
	}, precise, []Fn{v0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := f.Call(2); got != 4 {
			t.Fatalf("call %d = %v", i, got)
		}
	}
	if b := f.Breaker(); b.State != BreakerOpen {
		t.Fatalf("breaker after 3 panics = %+v", b)
	}
	// Open: forced precise even though monitoring is suspended.
	if got := f.Call(2); got != 4 {
		t.Errorf("open-breaker call = %v, want precise 4", got)
	}
	// Heal the version; the probe after the cool-down closes the breaker
	// and approximation resumes.
	healthy = true
	for i := 0; i < 40 && f.Breaker().State != BreakerClosed; i++ {
		f.Call(2)
	}
	if b := f.Breaker(); b.State != BreakerClosed {
		t.Fatalf("breaker never closed after heal: %+v", b)
	}
	f.setInterval(0) // non-monitored: the approximate version serves again
	if got, want := f.Call(2), 4*1.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("post-recovery call = %v, want approximate %v", got, want)
	}
}

// TestPreciseRoutedProbeLeavesBreakerHalfOpen: a half-open probe the
// model sends to the precise version runs no approximate version, so it
// cannot vouch for one. It leaves the breaker half-open, every call
// stays forced precise, and the next probe comes one cool-down later.
func TestPreciseRoutedProbeLeavesBreakerHalfOpen(t *testing.T) {
	fm, err := model.BuildFuncModel("sq", 18, []model.VersionCurve{
		{Name: "sq(0)", Work: 4, Samples: []model.FuncSample{{X: 0, Loss: 0.01}, {X: 10, Loss: 0.01}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, approx := false, 0
	v0 := func(x float64) float64 {
		if approx++; !healthy {
			panic("approx version exploded")
		}
		return x * x * 1.01
	}
	f, err := NewFunc(FuncConfig{Name: "sq", Model: fm, SLA: 0.2, SampleInterval: 1},
		func(x float64) float64 { return x * x }, []Fn{v0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.Call(2)
	}
	if b := f.Breaker(); b.State != BreakerOpen {
		t.Fatalf("breaker after 3 panics = %+v", b)
	}
	healthy, approx = true, 0
	cool := ctrlCooldown(1)
	for i := int64(0); i < cool; i++ { // the last call is the probe, at 20: outside the model's domain
		f.Call(20)
	}
	if b := f.Breaker(); b.State != BreakerHalfOpen || approx != 0 {
		t.Fatalf("after a precise-routed probe: breaker %+v, approximate version ran %d times; want half-open, 0", b, approx)
	}
	for i := int64(1); i < cool; i++ {
		if f.Call(2); approx != 0 || f.Breaker().State != BreakerHalfOpen {
			t.Fatalf("call %d of the next cool-down: breaker %+v, approximate version ran %d times", i, f.Breaker(), approx)
		}
	}
	if f.Call(2); approx != 1 || f.Breaker().State != BreakerClosed {
		t.Fatalf("the next probe: breaker %+v, approximate version ran %d times; want closed, 1", f.Breaker(), approx)
	}
}

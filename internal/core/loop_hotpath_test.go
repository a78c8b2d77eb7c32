package core

import (
	"reflect"
	"testing"
	"unsafe"

	"green/internal/model"
)

// countingDeltaQoS wraps fakeQoS and counts Delta calls, so tests can
// observe how often the adaptive controller actually samples improvement.
type countingDeltaQoS struct {
	fakeQoS
	deltaCalls int
}

func (c *countingDeltaQoS) Delta(iter int) float64 {
	c.deltaCalls++
	return c.fakeQoS.Delta(iter)
}

// Regression: a fractional Period in (0,1) used to pass the Period <= 0
// guard, truncate to int 0, and panic on `i % int(Period)` inside
// approxSaysStop. It must instead be rounded to a whole period (min 1).
func TestFractionalPeriodDoesNotPanic(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetAdaptive(model.AdaptiveParams{M: 4, Period: 0.4, TargetDelta: 0.01}); err != nil {
		t.Fatalf("SetAdaptive rejected fractional period: %v", err)
	}
	if got := l.Adaptive().Period; got != 1 {
		t.Fatalf("Period = %v after SetAdaptive(0.4), want 1", got)
	}
	q := &fakeQoS{} // Delta always 0 <= TargetDelta: stop at first check
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200) // panics here without the fix
	if !res.Approximated {
		t.Errorf("loop did not terminate early: ran %d iterations", iters)
	}
}

func TestFractionalPeriodNormalizedOnRestore(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := l.State()
	s.AdaptivePer = 0.25 // e.g. a checkpoint written by an older build
	if err := l.Restore(s); err != nil {
		t.Fatal(err)
	}
	if got := l.Adaptive().Period; got != 1 {
		t.Errorf("Period = %v after restoring 0.25, want 1", got)
	}
	if got := normalizeAdaptive(model.AdaptiveParams{Period: 7.6}).Period; got != 8 {
		t.Errorf("normalizeAdaptive(7.6) = %v, want 8", got)
	}
	if got := normalizeAdaptive(model.AdaptiveParams{Period: 0}).Period; got != 0 {
		t.Errorf("normalizeAdaptive(0) = %v, want 0 (untouched)", got)
	}
}

// A monitored execution must stop sampling QoS improvement once the
// record point is captured: the loop runs to its natural end regardless,
// so further Delta calls are wasted QoS computations.
func TestMonitoredContinueShortCircuitsAfterRecord(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive,
		SampleInterval: 1, // every execution monitored
	})
	if err != nil {
		t.Fatal(err)
	}
	ap := l.Adaptive()
	if ap.Period <= 0 {
		t.Fatalf("no adaptive params derived: %+v", ap)
	}
	q := &countingDeltaQoS{} // Delta always 0: record at the first check
	e, err := l.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if !res.Monitored || len(q.recordedAt) != 1 {
		t.Fatalf("monitored run misbehaved: res=%+v recordedAt=%v", res, q.recordedAt)
	}
	if iters != 3200 {
		t.Fatalf("monitored run terminated early at %d", iters)
	}
	if q.deltaCalls != 1 {
		t.Errorf("Delta called %d times, want 1 (no sampling after the record point)", q.deltaCalls)
	}
}

// Finish recycles the handle into a pool; a second Finish must be a
// harmless no-op (empty result), never a double Put that would hand the
// same handle to two concurrent Begins.
func TestDoubleFinishIsHarmless(t *testing.T) {
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
	res, _ := runLoop(t, e, 3200)
	if !res.Monitored {
		t.Fatalf("first Finish: %+v", res)
	}
	again := e.Finish(99)
	if again.Monitored || again.Loss != 0 || again.StoppedAt != -1 {
		t.Errorf("second Finish = %+v, want empty result", again)
	}
	execs, mon, _ := l.Stats()
	if execs != 1 || mon != 1 {
		t.Errorf("stats after double Finish = (%d, %d), want (1, 1)", execs, mon)
	}
}

// Steady-state (non-monitored) executions must be allocation-free: Begin
// draws the handle from a pool and reads one atomic snapshot.
func TestSteadyStateExecutionAllocationFree(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{}
	allocs := testing.AllocsPerRun(200, func() {
		e, err := l.Begin(q)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; e.Continue(i); i++ {
		}
		e.Finish(i)
	})
	if allocs != 0 {
		t.Errorf("steady-state execution allocates %v objects/op, want 0", allocs)
	}
	// The block form of the same execution.
	allocs = testing.AllocsPerRun(200, func() {
		e, err := l.Begin(q)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for k := e.ContinueN(i, 64); k > 0; k = e.ContinueN(i, 64) {
			i += k
		}
		e.Finish(i)
	})
	if allocs != 0 {
		t.Errorf("steady-state block execution allocates %v objects/op, want 0", allocs)
	}
}

// garbageQoS is what fillGarbage leaves in a LoopQoS/DeltaQoS field.
type garbageQoS struct{ plainQoS }

func (garbageQoS) Delta(int) float64 { return 0 }

// fillGarbage sets every field of the struct v — unexported ones and
// nested structs included — to a non-zero value, and fails the test on a
// field kind it has not been taught, so a new kind of field cannot slip
// past TestRecycledHandleIsFresh unset.
func fillGarbage(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Struct:
			fillGarbage(t, f)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(0x5a5a5a)
		case reflect.Float64:
			f.SetFloat(-12345.678)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Interface:
			f.Set(reflect.ValueOf(&garbageQoS{}))
		default:
			t.Fatalf("field %s of %s: kind %s is not handled; teach fillGarbage (and check init/load/arm assign it)",
				v.Type().Field(i).Name, v.Type(), f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s of %s still zero after fillGarbage", v.Type().Field(i).Name, v.Type())
		}
	}
}

// A recycled handle is a fresh handle. init, load and arm assign the
// fields they own instead of copying a zeroed literal over the member,
// so nothing but this test resets a field added later: whatever a
// handle held when it came back from the pool, the init/load/arm that
// begin and ExecN/Next run must leave it exactly as they leave a new one.
func TestRecycledHandleIsFresh(t *testing.T) {
	for _, mode := range []LoopMode{Static, Adaptive} {
		l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		q := &fakeQoS{}
		delta, err := l.checkQoS(q)
		if err != nil {
			t.Fatal(err)
		}
		st := l.state.Load()
		for _, c := range []struct {
			name                   string
			forced, probe, monitor bool
			sd                     selDecision
		}{
			{name: "steady"},
			{name: "monitored", monitor: true},
			{name: "probe", probe: true, monitor: true},
			{name: "forced", forced: true},
			{name: "selected", sd: selDecision{feat: Features{Key: 3, Valid: true}, level: 150, selected: true}},
		} {
			// begin's sequence on a LoopExec.
			start := func(e *LoopExec) {
				e.seq = 42
				e.init(l, q, delta, st, c.forced, c.probe, &c.sd)
				e.arm(c.monitor)
			}
			recycled, fresh := new(LoopExec), new(LoopExec)
			fillGarbage(t, reflect.ValueOf(recycled).Elem())
			start(recycled)
			start(fresh)
			if !reflect.DeepEqual(recycled, fresh) {
				t.Errorf("%v/%s: recycled LoopExec differs from a new one:\n got %+v\nwant %+v", mode, c.name, *recycled, *fresh)
			}
			// ExecN's and Next's on a LoopBatch's member.
			startMember := func(b *LoopBatch) {
				b.init(l, q, delta, st, c.forced, c.probe, &c.sd)
				b.arm(c.monitor)
			}
			rb, fb := new(LoopBatch), new(LoopBatch)
			fillGarbage(t, reflect.ValueOf(&rb.loopMember).Elem())
			startMember(rb)
			startMember(fb)
			if !reflect.DeepEqual(rb, fb) {
				t.Errorf("%v/%s: recycled LoopBatch member differs from a new one:\n got %+v\nwant %+v", mode, c.name, rb.loopMember, fb.loopMember)
			}
		}
	}
}

// What Finish returns to the pool pins nothing — no loop, no callbacks —
// and a second Finish neither reports anything nor Puts the handle again
// (two Gets would then hand the same handle to two executions).
func TestFinishedHandlePinsNothing(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive, SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Begin(&fakeQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if e.loop == nil || e.qos == nil || e.delta == nil {
		t.Fatalf("live handle lacks its references: %+v", e.loopMember)
	}
	runLoop(t, e, 3200)
	if e.loop != nil || e.qos != nil || e.delta != nil {
		t.Errorf("finished LoopExec still references loop=%v qos=%v delta=%v", e.loop, e.qos, e.delta)
	}
	if again := e.Finish(7); again != (Result{StoppedAt: -1}) {
		t.Errorf("second Finish = %+v, want the empty result", again)
	}
	if a, b := execPool.Get().(*LoopExec), execPool.Get().(*LoopExec); a == b {
		t.Error("double Finish put the handle into the pool twice")
	}

	b, err := l.ExecN(2, &fakeQoS{})
	if err != nil {
		t.Fatal(err)
	}
	for b.Next() {
		runBatchMember(b, 3200)
	}
	b.Finish()
	if b.loop != nil || b.qos != nil || b.delta != nil {
		t.Errorf("finished LoopBatch still references loop=%v qos=%v delta=%v", b.loop, b.qos, b.delta)
	}
	if again := b.Finish(); again != (BatchResult{}) {
		t.Errorf("second batch Finish = %+v, want the empty result", again)
	}
	if x, y := batchPool.Get().(*LoopBatch), batchPool.Get().(*LoopBatch); x == y {
		t.Error("double Finish put the batch into the pool twice")
	}
}

// holdPolicy never moves the level or the sampling interval.
type holdPolicy struct{}

func (holdPolicy) Observe(float64, float64) Decision { return Decision{} }

// fixedLoss is a LoopQoS whose every loss is its value.
type fixedLoss float64

func (fixedLoss) Record(int)         {}
func (q fixedLoss) Loss(int) float64 { return float64(q) }

// openPolicy never moves the level and keeps a window open for good, so
// the controller restates interval 1 on every observation.
type openPolicy struct{}

func (openPolicy) Observe(float64, float64) Decision { return Decision{Monitor: true} }

// Allocation gates where the allocation would happen (check.sh counts
// the rows). A monitored observation inside a window, which restates
// the live Sample_QoS of 1, must publish nothing: the interval travels
// with its reciprocal behind a pointer, and a store per observation
// would be a heap object per observation. Nor may a decrease the
// derived law declines: it changes nothing, so it publishes nothing.
// Nor may an observation inside the open window a nil Policy sizes,
// which keeps the configured interval. The single-call function tier has no
// pooled handle and must not grow a per-call object either.
func TestHotPathAllocationGates(t *testing.T) {
	gate := func(name string, op func()) {
		t.Run(name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Errorf("%v allocs/op, want 0", allocs)
			}
		})
	}
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1, Policy: openPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate("loop-monitored-interval-restated", func() {
		e, err := l.Begin(plainQoS{})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		if res := e.Finish(i); !res.Monitored {
			t.Fatalf("execution not monitored: %+v", res)
		}
	})
	d, err := NewLoop(LoopConfig{Name: "d", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate("loop-monitored-decrease-declined", func() {
		e, err := d.Begin(fixedLoss(0.04)) // 0.8 × 0.10 at M − step > SLA
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		if res := e.Finish(i); !res.Monitored || res.Recalibrated != ActNone {
			t.Fatalf("want a monitored execution whose decrease is declined: %+v", res)
		}
	})
	m := testLoopModel(t)
	m.Points[1].Spread = 0.01 // at M = 200: a window of ⌈(1.645 · 0.01 / 0.005)²⌉ = 11
	w, err := NewLoop(LoopConfig{Name: "w", Model: m, SLA: 0.05, SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.policy.(*WindowedPolicy).Window; n != 11 {
		t.Fatalf("sized window %d, want 11", n)
	}
	gate("loop-monitored-sized-window-open", func() {
		e, err := w.Begin(fixedLoss(0.047)) // inside the band: a closing window acts on nothing either
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		if res := e.Finish(i); !res.Monitored || res.Recalibrated != ActNone {
			t.Fatalf("want a monitored execution that changes nothing: %+v", res)
		}
	})
	f := funcFixture(t, 0.2, 0)
	gate("func-call-steady", func() { f.Call(2) })
	f2 := func2Fixture(t, 0.2, 0)
	gate("func2-call-steady", func() { f2.Call(3, 4) })
}

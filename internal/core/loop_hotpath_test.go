package core

import (
	"testing"

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

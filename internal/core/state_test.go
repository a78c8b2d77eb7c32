package core

import (
	"math"
	"strings"
	"testing"
)

func TestLoopStateRoundTrip(t *testing.T) {
	m := testLoopModel(t)
	l1, err := NewLoop(LoopConfig{
		Name: "svc", Model: m, SLA: 0.05, SampleInterval: 10, Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive some recalibration so the state is non-trivial.
	for run := 0; run < 20; run++ {
		q := &fakeQoS{lossValue: 0.5}
		e, _ := l1.Begin(q)
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		e.Finish(i)
	}
	data, err := l1.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": fresh controller from the same model, restore.
	l2, err := NewLoop(LoopConfig{
		Name: "svc", Model: m, SLA: 0.05, SampleInterval: 10, Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreStateJSON(data); err != nil {
		t.Fatal(err)
	}
	if l2.Level() != l1.Level() {
		t.Errorf("level = %v, want %v", l2.Level(), l1.Level())
	}
	e1, m1, loss1 := l1.Stats()
	e2, m2, loss2 := l2.Stats()
	if e1 != e2 || m1 != m2 || loss1 != loss2 {
		t.Errorf("stats differ: (%d,%d,%v) vs (%d,%d,%v)", e1, m1, loss1, e2, m2, loss2)
	}
}

func TestLoopRestoreValidation(t *testing.T) {
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{Name: "a", Model: m, SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Restore(LoopState{Name: "b", Level: 100}); err == nil {
		t.Error("cross-name restore accepted")
	}
	if err := l.Restore(LoopState{Name: "a", Level: 0}); err == nil {
		t.Error("zero level accepted")
	}
	if err := l.Restore(LoopState{Name: "a", Level: 10, Count: 1, Monitored: 2}); err == nil {
		t.Error("monitored > count accepted")
	}
	if err := l.RestoreStateJSON([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestLoopRestoreRejectsPoisonedState covers the crash-safety hardening:
// a snapshot that survived a disk corruption or was written by a broken
// QoS callback must be rejected with a descriptive error, never limped
// along on.
func TestLoopRestoreRejectsPoisonedState(t *testing.T) {
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{Name: "a", Model: m, SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	valid := LoopState{Name: "a", Level: 200, Interval: 10, Count: 50, Monitored: 5, LossSum: 0.2}
	if err := l.Restore(valid); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*LoopState)
		errWant string
	}{
		{"NaN level", func(s *LoopState) { s.Level = math.NaN() }, "level"},
		{"Inf level", func(s *LoopState) { s.Level = math.Inf(1) }, "level"},
		{"level above base", func(s *LoopState) { s.Level = m.BaseLevel + 1 }, "base level"},
		{"negative interval", func(s *LoopState) { s.Interval = -1 }, "interval"},
		{"negative count", func(s *LoopState) { s.Count = -1 }, "counters"},
		{"negative monitored", func(s *LoopState) { s.Monitored = -1 }, "counters"},
		{"NaN loss sum", func(s *LoopState) { s.LossSum = math.NaN() }, "loss sum"},
		{"Inf loss sum", func(s *LoopState) { s.LossSum = math.Inf(1) }, "loss sum"},
		{"negative loss sum", func(s *LoopState) { s.LossSum = -0.1 }, "loss sum"},
		{"NaN adaptive period", func(s *LoopState) { s.AdaptivePer = math.NaN() }, "adaptive"},
		{"negative adaptive delta", func(s *LoopState) { s.AdaptiveDelta = -1 }, "adaptive"},
		{"Inf adaptive M", func(s *LoopState) { s.AdaptiveM = math.Inf(-1) }, "adaptive"},
	}
	for _, tc := range cases {
		s := valid
		tc.mutate(&s)
		err := l.Restore(s)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errWant)
		}
	}
	// The rejections must not have clobbered the live state.
	if l.Level() != 200 {
		t.Errorf("rejected restores mutated the level: %v", l.Level())
	}
}

func TestFuncRestoreRejectsPoisonedState(t *testing.T)  { rejectsPoisonedState(t, funcKinds[0]) }
func TestFunc2RestoreRejectsPoisonedState(t *testing.T) { rejectsPoisonedState(t, funcKinds[1]) }

func rejectsPoisonedState(t *testing.T, k funcKind) {
	f := k.build(t, 0.05, 1)
	valid := FuncState{Name: f.Name(), Offset: 1, Interval: 10, Count: 50, Monitored: 5, LossSum: 0.2, WorkMilli: 900}
	if err := f.Restore(valid); err != nil {
		t.Fatalf("%s: valid state rejected: %v", k.name, err)
	}
	cases := []struct {
		name    string
		mutate  func(*FuncState)
		errWant string
	}{
		{"cross-name", func(s *FuncState) { s.Name = "other" }, "cannot restore"},
		{"negative interval", func(s *FuncState) { s.Interval = -1 }, "interval"},
		{"negative count", func(s *FuncState) { s.Count = -1 }, "counters"},
		{"negative monitored", func(s *FuncState) { s.Monitored = -1 }, "counters"},
		{"monitored above count", func(s *FuncState) { s.Monitored = 51 }, "exceeds"},
		{"NaN loss sum", func(s *FuncState) { s.LossSum = math.NaN() }, "loss sum"},
		{"Inf loss sum", func(s *FuncState) { s.LossSum = math.Inf(1) }, "loss sum"},
		{"negative loss sum", func(s *FuncState) { s.LossSum = -0.1 }, "loss sum"},
		{"negative work", func(s *FuncState) { s.WorkMilli = -1 }, "work"},
		{"offset above ladder", func(s *FuncState) { s.Offset = 3 }, "ladder"},
		{"offset below ladder", func(s *FuncState) { s.Offset = -3 }, "ladder"},
	}
	for _, tc := range cases {
		s := valid
		tc.mutate(&s)
		err := f.Restore(s)
		if err == nil {
			t.Errorf("%s %s: accepted", k.name, tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s %s: error %q does not mention %q", k.name, tc.name, err, tc.errWant)
		}
	}
	if f.Offset() != 1 {
		t.Errorf("%s: rejected restores mutated the offset: %d", k.name, f.Offset())
	}
	if err := f.RestoreStateJSON([]byte("{")); err == nil {
		t.Errorf("%s: bad JSON accepted", k.name)
	}
}

func TestFuncStateRoundTrip(t *testing.T)  { stateRoundTrip(t, funcKinds[0]) }
func TestFunc2StateRoundTrip(t *testing.T) { stateRoundTrip(t, funcKinds[1]) }

func stateRoundTrip(t *testing.T, k funcKind) {
	f1 := k.build(t, 0.05, 1)
	for i := 0; i < 5; i++ {
		f1.call()
	}
	data, err := f1.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	f2 := k.build(t, 0.05, 1)
	if err := f2.RestoreStateJSON(data); err != nil {
		t.Fatal(err)
	}
	if f2.Offset() != f1.Offset() {
		t.Errorf("%s: offset = %d, want %d", k.name, f2.Offset(), f1.Offset())
	}
	c1, m1, l1 := f1.Stats()
	c2, m2, l2 := f2.Stats()
	if c1 != c2 || m1 != m2 || l1 != l2 {
		t.Errorf("%s: stats differ: (%d,%d,%v) vs (%d,%d,%v)", k.name, c1, m1, l1, c2, m2, l2)
	}
	if f1.Work() != f2.Work() {
		t.Errorf("%s: work differs: %v vs %v", k.name, f1.Work(), f2.Work())
	}
	// Behavior continuity: both make the same next decision.
	if f1.call() != f2.call() {
		t.Errorf("%s: restored controller diverges", k.name)
	}
}

func TestFuncRestoreValidation(t *testing.T) {
	f := funcFixture(t, 0.05, 0)
	if err := f.Restore(FuncState{Name: "other"}); err == nil {
		t.Error("cross-name restore accepted")
	}
	if err := f.Restore(FuncState{Name: "sq", Offset: 99}); err == nil {
		t.Error("out-of-ladder offset accepted")
	}
	if err := f.Restore(FuncState{Name: "sq", Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
	if err := f.RestoreStateJSON([]byte("nope")); err == nil {
		t.Error("bad JSON accepted")
	}
}

package core

import (
	"testing"
)

func TestLoopEmitsEventsOnMonitoredRuns(t *testing.T) {
	var events []Event
	m := testLoopModel(t)
	l, err := NewLoop(LoopConfig{
		Name: "evt", Model: m, SLA: 0.05, SampleInterval: 2,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		q := &fakeQoS{lossValue: 0.5}
		e, _ := l.Begin(q)
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		e.Finish(i)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3 (every 2nd run)", len(events))
	}
	for _, e := range events {
		if e.Unit != "evt" || e.SLA != 0.05 {
			t.Errorf("bad event metadata: %+v", e)
		}
		if e.Loss != 0.5 {
			t.Errorf("loss = %v", e.Loss)
		}
		if e.Action != ActIncrease {
			t.Errorf("action = %v, want increase", e.Action)
		}
		if e.Level <= 0 {
			t.Errorf("level = %v", e.Level)
		}
	}
	// Levels must be non-decreasing under constant increase pressure.
	for i := 1; i < len(events); i++ {
		if events[i].Level < events[i-1].Level {
			t.Errorf("levels regressed: %v", events)
		}
	}
}

func TestFuncEmitsEventsOnMonitoredCalls(t *testing.T)  { emitsEvents(t, funcKinds[0]) }
func TestFunc2EmitsEventsOnMonitoredCalls(t *testing.T) { emitsEvents(t, funcKinds[1]) }

func emitsEvents(t *testing.T, k funcKind) {
	var events []Event
	f := k.build(t, 0.2, 2)
	*f.onEvent = func(e Event) { events = append(events, e) }
	for i := 0; i < 6; i++ {
		f.call()
	}
	if len(events) != 3 {
		t.Fatalf("%s: events = %d, want 3 (every 2nd call)", k.name, len(events))
	}
	for _, e := range events {
		if e.Unit != f.Name() || e.SLA != 0.2 {
			t.Errorf("%s: bad event: %+v", k.name, e)
		}
	}
}

// Callbacks run outside the lock, so re-entrant reads must not deadlock.
func TestEventCallbackMayReadController(t *testing.T) {
	m := testLoopModel(t)
	var l *Loop
	var err error
	l, err = NewLoop(LoopConfig{
		Name: "reent", Model: m, SLA: 0.05, SampleInterval: 1,
		OnEvent: func(Event) {
			_ = l.Level()
			_, _, _ = l.Stats()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := &fakeQoS{lossValue: 0.01}
	e, _ := l.Begin(q)
	i := 0
	for ; i < 3200 && e.Continue(i); i++ {
	}
	e.Finish(i) // must not deadlock
}

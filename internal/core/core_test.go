package core

import (
	"testing"
)

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy{}
	cases := []struct {
		loss, sla float64
		want      Action
	}{
		{0.05, 0.02, ActIncrease},  // low QoS
		{0.001, 0.02, ActDecrease}, // high QoS
		{0.019, 0.02, ActNone},     // within band [0.9*SLA, SLA]
		{0.02, 0.02, ActNone},      // exactly at SLA
		{0.0185, 0.02, ActNone},    // just above 0.9*SLA
	}
	for _, c := range cases {
		if got := p.Observe(c.loss, c.sla); got.Action != c.want {
			t.Errorf("Observe(%v, %v) = %v, want %v", c.loss, c.sla, got.Action, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	if ActNone.String() != "none" || ActIncrease.String() != "increase-accuracy" ||
		ActDecrease.String() != "decrease-accuracy" {
		t.Error("Action strings wrong")
	}
	if Action(42).String() == "" {
		t.Error("unknown action must still stringify")
	}
}

// The Figure 9 policy: a window of 100 consecutive monitored queries
// aggregated into one decision.
func TestWindowedPolicyAggregates(t *testing.T) {
	p := &WindowedPolicy{Window: 100, BaseInterval: 1000}
	sla := 0.01 // "99% of queries identical"
	// First 99 observations keep the window open and force interval 1.
	for i := 0; i < 99; i++ {
		loss := 0.0
		if i < 5 {
			loss = 1 // five low-QoS queries out of the window
		}
		d := p.Observe(loss, sla)
		if d.Action != ActNone {
			t.Fatalf("observation %d acted early: %v", i, d.Action)
		}
		if d.NewSampleInterval != 1 {
			t.Fatalf("observation %d interval = %d, want 1", i, d.NewSampleInterval)
		}
	}
	// 100th completes the window: aggregate loss 5/100 = 0.05 > SLA.
	d := p.Observe(0, sla)
	if d.Action != ActIncrease {
		t.Fatalf("window decision = %v, want increase", d.Action)
	}
	if d.NewSampleInterval != 1000 {
		t.Fatalf("restored interval = %d, want 1000", d.NewSampleInterval)
	}
}

func TestWindowedPolicyGoodWindowDecreases(t *testing.T) {
	p := &WindowedPolicy{Window: 10, BaseInterval: 50}
	sla := 0.5
	var d Decision
	for i := 0; i < 10; i++ {
		d = p.Observe(0, sla) // all queries perfect
	}
	if d.Action != ActDecrease {
		t.Fatalf("perfect window decision = %v, want decrease", d.Action)
	}
}

func TestWindowedPolicyInBandWindowHolds(t *testing.T) {
	p := &WindowedPolicy{Window: 10, BaseInterval: 50}
	sla := 0.5
	var d Decision
	for i := 0; i < 10; i++ {
		loss := 0.0
		if i < 5 {
			loss = 1 // aggregate 0.5 == SLA: inside [0.45, 0.5]
		}
		d = p.Observe(loss, sla)
	}
	if d.Action != ActNone {
		t.Fatalf("in-band window decision = %v, want none", d.Action)
	}
}

func TestWindowedPolicyReopens(t *testing.T) {
	p := &WindowedPolicy{Window: 3, BaseInterval: 9}
	for i := 0; i < 3; i++ {
		p.Observe(1, 0.4)
	}
	// The next window starts fresh: it stays open for two observations,
	// and one low-QoS query in three aggregates to 1/3 < 0.9·0.4. Counts
	// carried over from the first window would close it at once.
	var d Decision
	for i, loss := range []float64{0, 1, 0} {
		if d = p.Observe(loss, 0.4); i < 2 && d != (Decision{NewSampleInterval: 1}) {
			t.Fatalf("observation %d of the new window = %+v, want it open", i, d)
		}
	}
	if d != (Decision{Action: ActDecrease, NewSampleInterval: 9}) {
		t.Fatalf("closing decision = %+v, want decrease at 1/3 and the base interval", d)
	}
}

func TestWindowedPolicyDefaultWindow(t *testing.T) {
	p := &WindowedPolicy{BaseInterval: 10}
	d := p.Observe(0, 0.01)
	if p.Window != 100 {
		t.Fatalf("default window = %d, want 100", p.Window)
	}
	if d.NewSampleInterval != 1 {
		t.Fatalf("interval = %d, want 1", d.NewSampleInterval)
	}
}

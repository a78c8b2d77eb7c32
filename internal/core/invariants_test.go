package core

import (
	"math/rand"
	"testing"

	"green/internal/model"
)

// Property: concurrent Call is race-free and conserves the call count.
func TestFuncConcurrentCalls(t *testing.T) {
	f := funcFixture(t, 0.2, 10)
	const goroutines = 8
	const per = 500
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				f.Call(rng.Float64() * 10)
			}
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	calls, monitored, _ := f.Stats()
	if calls != goroutines*per {
		t.Errorf("calls = %d, want %d", calls, goroutines*per)
	}
	if monitored == 0 {
		t.Error("no monitored calls despite sampling")
	}
	if f.Work() <= 0 {
		t.Error("no work accounted")
	}
}

// Property: StaticParams-derived levels always satisfy the SLA in the
// model's own prediction, across random SLAs (the model/controller
// contract the operational phase relies on).
func TestLoopModelControllerContract(t *testing.T) {
	m := testLoopModel(t)
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 200; trial++ {
		sla := 0.002 + rng.Float64()*0.2
		l, err := NewLoop(LoopConfig{Name: "c", Model: m, SLA: sla})
		if err != nil {
			t.Fatal(err)
		}
		if !l.ApproxEnabled() {
			continue // unsatisfiable: precise fallback, trivially safe
		}
		if pred := m.PredictLoss(l.Level()); pred > sla+1e-9 {
			t.Fatalf("SLA %v: level %v predicts loss %v", sla, l.Level(), pred)
		}
	}
}

// Failure injection: a policy that always increases must drive the level
// to the base and stop there; one that always decreases must floor at
// MinLevel.
type constPolicy struct{ a Action }

func (p constPolicy) Observe(float64, float64) Decision { return Decision{Action: p.a} }

func TestLoopSaturationUnderConstantPolicy(t *testing.T) {
	m := testLoopModel(t)
	for _, tc := range []struct {
		act  Action
		want float64
	}{
		{ActIncrease, 3200},
		{ActDecrease, 100},
	} {
		l, err := NewLoop(LoopConfig{
			Name: "sat", Model: m, SLA: 0.05, SampleInterval: 1,
			Policy: constPolicy{tc.act}, Step: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 20; run++ {
			q := &fakeQoS{}
			e, _ := l.Begin(q)
			i := 0
			for ; i < 3200 && e.Continue(i); i++ {
			}
			e.Finish(i)
		}
		if got := l.Level(); got != tc.want {
			t.Errorf("action %v: level = %v, want %v", tc.act, got, tc.want)
		}
	}
}

// Failure injection: models whose points all carry identical loss still
// invert deterministically.
func TestFlatLossModel(t *testing.T) {
	pts := []model.CalPoint{
		{Level: 10, QoSLoss: 0.05, Work: 10},
		{Level: 20, QoSLoss: 0.05, Work: 20},
		{Level: 40, QoSLoss: 0.05, Work: 40},
	}
	m, err := model.BuildLoopModel("flat", pts, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := m.StaticParams(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 10 {
		t.Errorf("flat model M = %v, want the cheapest level 10", lvl)
	}
	if _, err := m.StaticParams(0.049); err != model.ErrUnsatisfiable {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

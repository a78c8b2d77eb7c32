package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLoopConcurrentStress hammers the operational hot path
// (Begin/Continue/Finish) from several goroutines while another goroutine
// continuously recalibrates (IncreaseAccuracy/DecreaseAccuracy/SetLevel)
// and reads (Stats/State) the same Loop. Run under -race it proves the
// snapshot scheme is data-race-free; the assertions prove no execution or
// monitored sample is lost and the loss accounting stays consistent.
func TestLoopConcurrentStress(t *testing.T) {
	const (
		interval   = 7
		goroutines = 4
		perG       = 700 // total 2800 executions, an exact multiple of 7
		lossValue  = 0.03
	)
	l, err := NewLoop(LoopConfig{
		Name: "stress", Model: testLoopModel(t), SLA: 0.05,
		SampleInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var mutators sync.WaitGroup
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0:
				l.IncreaseAccuracy()
			case 1:
				l.DecreaseAccuracy()
			case 2:
				l.SetLevel(100 + float64(i%1500))
			case 3:
				l.Stats()
			case 4:
				_ = l.State()
			}
		}
	}()

	var monitoredSeen atomic.Int64
	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for n := 0; n < perG; n++ {
				q := &fakeQoS{lossValue: lossValue}
				e, err := l.Begin(q)
				if err != nil {
					t.Error(err)
					return
				}
				i := 0
				for ; i < 3200 && e.Continue(i); i++ {
				}
				if res := e.Finish(i); res.Monitored {
					monitoredSeen.Add(1)
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	mutators.Wait()

	execs, monitored, meanLoss := l.Stats()
	if execs != goroutines*perG {
		t.Errorf("executions = %d, want %d", execs, goroutines*perG)
	}
	// A window of one never changes the sample interval, so exactly every
	// 7th Begin must have been monitored — regardless of interleaving.
	if want := int64(goroutines * perG / interval); monitored != want {
		t.Errorf("monitored = %d, want %d", monitored, want)
	}
	if monitored != monitoredSeen.Load() {
		t.Errorf("monitored counter %d != monitored results observed %d",
			monitored, monitoredSeen.Load())
	}
	// Every monitored run records (the level never exceeds the 3200-iter
	// bound), so each contributes exactly lossValue to the accumulator.
	if math.Abs(meanLoss-lossValue) > 1e-6 {
		t.Errorf("meanLoss = %v, want %v", meanLoss, lossValue)
	}
}

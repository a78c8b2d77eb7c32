package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestControllerLossConservation drives monitored executions (each of
// which adds its loss to the one total under the controller's lock)
// concurrently with lock-free Stats readers, then checks the
// controller-level ledger: mean loss times monitored count must
// reproduce the exact sum fed in — integer-valued losses, so the check
// is equality, not tolerance.
// noopPolicy never adjusts the level, so every monitored execution's
// approximation triggers and its scripted loss is measured.
type noopPolicy struct{}

func (noopPolicy) Observe(loss, sla float64) Decision { return Decision{} }

func TestControllerLossConservation(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1,
		Policy: noopPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 500
	)
	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // a concurrent Stats reader races the total's writers
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Stats()
				runtime.Gosched()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := &seqQoS{losses: []float64{1, 2, 3, 4, 5}}
			for i := 0; i < perW; i++ {
				e, err := l.Begin(q)
				if err != nil {
					t.Error(err)
					return
				}
				i := 0
				for ; i < 3200; i++ {
					if !e.Continue(i) {
						break
					}
				}
				e.Finish(i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	_, monitored, mean := l.Stats()
	if monitored != workers*perW {
		t.Fatalf("monitored = %d, want %d", monitored, workers*perW)
	}
	// Each worker's qos cycles 1..5, so each contributes perW observations
	// summing to perW/5 * 15.
	want := float64(workers * (perW / 5) * 15)
	if got := mean * float64(monitored); got != want {
		t.Fatalf("loss ledger: mean*monitored = %v, want exactly %v", got, want)
	}
}

package core

import "testing"

// seqQoS replays a pre-generated loss sequence: Loss returns the next
// value front to back. Feeding two controllers the same sequence makes
// their monitored observations — and therefore their recalibration
// trajectories — directly comparable.
type seqQoS struct {
	losses []float64
	i      int
}

func (q *seqQoS) Record(int) {}
func (q *seqQoS) Loss(int) float64 {
	v := q.losses[q.i%len(q.losses)]
	q.i++
	return v
}

// runBatchMember drives one LoopBatch member to at most maxIter
// iterations, mirroring runLoop.
func runBatchMember(b *LoopBatch, maxIter int) (Result, int) {
	i := 0
	for ; i < maxIter; i++ {
		if !b.Continue(i) {
			break
		}
	}
	return b.End(i), i
}

// TestLoopExecNShortInterval: with Sample_QoS shorter than the batch,
// monitoring collapses to at most one observation per batch (the
// documented amortization contract) and counters stay exact.
func TestLoopExecNShortInterval(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch, batches = 64, 5
	for bi := 0; bi < batches; bi++ {
		b, err := l.ExecN(batch, &seqQoS{losses: []float64{0.049}})
		if err != nil {
			t.Fatal(err)
		}
		monitored := 0
		for b.Next() {
			res, _ := runBatchMember(b, 3200)
			if res.Monitored {
				monitored++
			}
		}
		if br := b.Finish(); br.Monitored != 1 || monitored != 1 {
			t.Fatalf("batch %d: %d monitored members (result %d), want exactly 1", bi, monitored, br.Monitored)
		}
	}
	e, m, _ := l.Stats()
	if e != batch*batches || m != batches {
		t.Fatalf("Stats = (%d, %d), want (%d, %d)", e, m, batch*batches, batches)
	}
}

// plainQoS implements LoopQoS but not DeltaQoS.
type plainQoS struct{}

func (plainQoS) Record(int)       {}
func (plainQoS) Loss(int) float64 { return 0 }

func TestExecNValidation(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ExecN(0, plainQoS{}); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := l.ExecN(8, nil); err == nil {
		t.Error("nil qos accepted")
	}
	la, err := NewLoop(LoopConfig{Name: "a", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.ExecN(8, plainQoS{}); err == nil {
		t.Error("adaptive batch without DeltaQoS accepted")
	}
}

// TestExecNAbandonedBatchReconciles: a batch finished early returns its
// unused executions to the counter, and Finish on a recycled handle is
// inert.
func TestExecNAbandonedBatchReconciles(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.ExecN(64, plainQoS{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && b.Next(); i++ {
		runBatchMember(b, 3200)
	}
	if br := b.Finish(); br.N != 10 {
		t.Fatalf("BatchResult.N = %d, want 10", br.N)
	}
	if e, _, _ := l.Stats(); e != 10 {
		t.Fatalf("executions = %d after abandoned batch, want 10", e)
	}
	if br := b.Finish(); br != (BatchResult{}) {
		t.Fatalf("double Finish returned %+v, want zero", br)
	}
}

func TestCallNValidation(t *testing.T) {
	f := funcFixture(t, 0.05, 0)
	if err := f.CallN(make([]float64, 4), make([]float64, 3)); err == nil {
		t.Error("short output slice accepted")
	}
	if err := f.CallN(nil, nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	if e, _, _ := f.Stats(); e != 0 {
		t.Errorf("empty batch advanced the counter to %d", e)
	}

	f2 := func2Fixture(t, 0.05, 0)
	if err := f2.CallN(make([]float64, 4), make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("mismatched input lengths accepted")
	}
	if err := f2.CallN(make([]float64, 4), make([]float64, 4), make([]float64, 3)); err == nil {
		t.Error("short output slice accepted")
	}
}

// panicRecordQoS panics in Record, so every monitored execution charges
// the breaker.
type panicRecordQoS struct{}

func (panicRecordQoS) Record(int)       { panic("qos bug") }
func (panicRecordQoS) Loss(int) float64 { return 0 }

// TestExecNBreakerForcesBatchPrecise: once contained panics trip the
// breaker, a whole batch runs precise with monitoring suspended —
// batched streams degrade exactly like unbatched ones.
func TestExecNBreakerForcesBatchPrecise(t *testing.T) {
	l, err := NewLoop(LoopConfig{
		Name: "l", Model: testLoopModel(t), SLA: 0.05,
		SampleInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e, err := l.Begin(panicRecordQoS{})
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := runLoop(t, e, 3200); !res.ContainedPanic {
			t.Fatalf("execution %d: panic not contained: %+v", i, res)
		}
	}
	if l.Breaker().State != BreakerOpen {
		t.Fatalf("breaker state = %v after 3 contained panics, want open", l.Breaker().State)
	}
	_, mBefore, _ := l.Stats()
	b, err := l.ExecN(8, panicRecordQoS{})
	if err != nil {
		t.Fatal(err)
	}
	for b.Next() {
		res, iters := runBatchMember(b, 3200)
		if res.Approximated || res.Monitored || iters != 3200 {
			t.Fatalf("forced-precise batch member approximated or monitored: %+v after %d iters", res, iters)
		}
	}
	if br := b.Finish(); br.Monitored != 0 {
		t.Fatalf("forced batch monitored %d members, want 0", br.Monitored)
	}
	if _, m, _ := l.Stats(); m != mBefore {
		t.Fatalf("monitored advanced %d -> %d during forced batch", mBefore, m)
	}
}

// TestLoopExecNSteadyZeroAlloc guards the batched steady path's
// allocation budget directly (check.sh gates the benchmark too).
func TestLoopExecNSteadyZeroAlloc(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	q := plainQoS{}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := l.ExecN(64, q)
		if err != nil {
			t.Fatal(err)
		}
		for b.Next() {
			i := 0
			for ; i < 3200; i++ {
				if !b.Continue(i) {
					break
				}
			}
			b.End(i)
		}
		b.Finish()
	})
	if allocs != 0 {
		t.Fatalf("batched steady path allocates %.1f per batch, want 0", allocs)
	}
}

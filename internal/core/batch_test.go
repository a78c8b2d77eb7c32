package core

import (
	"math"
	"math/rand"
	"testing"

	"green/internal/model"
)

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

// lossSequence generates a seeded loss stream that straddles DefaultPolicy's
// bands around the SLA, so the level trajectory actually moves.
func lossSequence(seed int64, n int, sla float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 2 * sla
	}
	return out
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

// lawQoS replays a seeded loss stream like seqQoS, adds a deterministic
// Delta (improvement decaying with the iteration count, so where an
// adaptive loop stops depends on the live TargetDelta), and panics in
// Record or Delta while the driver holds panicNow — which it does only
// for monitored members, the one place a callback panic is contained.
type lawQoS struct {
	seqQoS
	panicIn  string // "", "record", or "delta"
	panicNow bool
}

func (q *lawQoS) Record(int) {
	if q.panicNow && q.panicIn == "record" {
		panic("qos bug in Record")
	}
}

func (q *lawQoS) Delta(i int) float64 {
	if q.panicNow && q.panicIn == "delta" {
		panic("qos bug in Delta")
	}
	return 1 / float64(i+1)
}

// TestLoopExecNEquivalence feeds the same seeded loss stream to two
// identical loops — one driven in batches of 64, one execution at a
// time — and requires identical per-execution results, identical level
// trajectories, identical monitored sequence numbers, bit-identical
// loss accounting, and identical breaker statistics. SampleInterval
// equals the batch size, the regime where the batched monitored
// schedule reproduces the unbatched one exactly. The stop law, the
// contained-panic handling, and the observation are one implementation
// behind both front-ends; the rows cover each mode of that law, with and
// without a monitored member whose callback panics (every other
// monitored member, so the breaker counts failures but never trips — a
// tripped breaker is consulted per batch, not per member, by design).
func TestLoopExecNEquivalence(t *testing.T) {
	const (
		batch    = 64
		batches  = 20
		maxIter  = 3200
		interval = 64
		sla      = 0.05
	)
	for _, c := range []struct {
		name    string
		mode    LoopMode
		panicIn string
	}{
		{"static", Static, ""},
		{"adaptive", Adaptive, ""},
		{"static-record-panics", Static, "record"},
		{"adaptive-delta-panics", Adaptive, "delta"},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() *Loop {
				l, err := NewLoop(LoopConfig{
					Name: "l", Model: testLoopModel(t), SLA: sla, SampleInterval: interval, Mode: c.mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			lb, lu := mk(), mk()
			qb := &lawQoS{seqQoS: seqQoS{losses: lossSequence(42, batches, sla)}, panicIn: c.panicIn}
			qu := &lawQoS{seqQoS: seqQoS{losses: lossSequence(42, batches, sla)}, panicIn: c.panicIn}
			// arm makes the callbacks of execution k (0-based) panic when it
			// is a monitored one with an odd observation index.
			arm := func(q *lawQoS, k int) {
				seq := k + 1
				q.panicNow = seq%interval == 0 && (seq/interval)%2 == 1
			}

			type step struct {
				res      Result
				iters    int
				level    float64
				adaptive model.AdaptiveParams
				lastSeq  int64
				lastAct  Action
			}
			snap := func(l *Loop, res Result, iters int) step {
				seq, act := l.LastRecalibration()
				return step{res, iters, l.Level(), l.Adaptive(), seq, act}
			}
			var got, want []step

			for bi := 0; bi < batches; bi++ {
				b, err := lb.ExecN(batch, qb)
				if err != nil {
					t.Fatal(err)
				}
				for b.Next() {
					arm(qb, len(got))
					res, iters := runBatchMember(b, maxIter)
					got = append(got, snap(lb, res, iters))
				}
				br := b.Finish()
				if br.N != batch {
					t.Fatalf("batch %d: BatchResult.N = %d, want %d", bi, br.N, batch)
				}
			}
			for k := 0; k < batches*batch; k++ {
				e, err := lu.Begin(qu)
				if err != nil {
					t.Fatal(err)
				}
				arm(qu, k)
				res, iters := runLoop(t, e, maxIter)
				want = append(want, snap(lu, res, iters))
			}

			moved := false
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("execution %d diverged:\n  batched:   %+v\n  unbatched: %+v", k, got[k], want[k])
				}
				moved = moved || want[k].iters != want[0].iters
			}
			if !moved {
				t.Fatal("the stop point never moved: the stream does not exercise recalibration")
			}
			be, bm, bl := lb.Stats()
			ue, um, ul := lu.Stats()
			if be != ue || bm != um {
				t.Fatalf("counters diverged: batched (%d, %d) vs unbatched (%d, %d)", be, bm, ue, um)
			}
			if math.Float64bits(bl) != math.Float64bits(ul) {
				t.Fatalf("mean loss diverged: batched %v vs unbatched %v", bl, ul)
			}
			if bs, us := lb.State().LossSum, lu.State().LossSum; math.Float64bits(bs) != math.Float64bits(us) {
				t.Fatalf("loss sum diverged: batched %v vs unbatched %v", bs, us)
			}
			if lb.Breaker() != lu.Breaker() {
				t.Fatalf("breaker stats diverged: batched %+v vs unbatched %+v", lb.Breaker(), lu.Breaker())
			}
			wantMonitored, wantPanics := int64(batches), int64(0)
			if c.panicIn != "" {
				wantMonitored, wantPanics = batches/2, batches/2
			}
			if bm != wantMonitored {
				t.Fatalf("monitored %d, want %d clean observations over %d batches of %d", bm, wantMonitored, batches, batch)
			}
			if brk := lb.Breaker(); brk.ContainedPanics != wantPanics || brk.Trips != 0 {
				t.Fatalf("breaker = %+v, want %d contained panics and no trip", brk, wantPanics)
			}
		})
	}
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
		SampleInterval: 1, BreakerThreshold: 3, BreakerCooldown: 1 << 20,
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

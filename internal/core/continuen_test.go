package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"green/internal/model"
)

// traceQoS is lawQoS with a log: every callback the controller makes,
// and the iteration it made it at.
type traceQoS struct {
	lawQoS
	calls []qosCall
}

type qosCall struct {
	kind byte // 'R'ecord, 'D'elta, 'L'oss
	iter int
}

func (q *traceQoS) Record(i int) {
	q.calls = append(q.calls, qosCall{'R', i})
	q.lawQoS.Record(i)
}

func (q *traceQoS) Delta(i int) float64 {
	q.calls = append(q.calls, qosCall{'D', i})
	return q.lawQoS.Delta(i)
}

func (q *traceQoS) Loss(i int) float64 {
	q.calls = append(q.calls, qosCall{'L', i})
	return q.lawQoS.Loss(i)
}

// continuer is the stop-law surface LoopExec and LoopBatch share by
// embedding loopMember.
type continuer interface {
	Continue(i int) bool
	ContinueN(i, n int) int
}

// runPerIteration is the Figure 3 loop: one Continue per iteration.
func runPerIteration(c continuer, bound int) int {
	i := 0
	for i < bound && c.Continue(i) {
		i++
	}
	return i
}

// runBlocks drives the same loop through ContinueN with a fresh random
// block size on every call.
func runBlocks(t *testing.T, c continuer, bound int, rng *rand.Rand) int {
	t.Helper()
	i := 0
	for i < bound {
		n := min(1+rng.Intn(100), bound-i)
		k := c.ContinueN(i, n)
		if k > n {
			t.Fatalf("ContinueN(%d, %d) = %d: granted more than asked", i, n, k)
		}
		if k <= 0 {
			break
		}
		i += k
	}
	return i
}

// TestContinueNMatchesContinue holds ContinueN to its definition — k
// successive true Continue calls, side effects included. Two identical
// loops are fed the same seeded loss stream, one driven per iteration,
// one in random blocks; every execution must make the same callbacks at
// the same iterations (Record where the approximation would stop, Delta
// at each sampled period), stop at the same iteration with the same
// Result, and leave the same level, adaptive parameters and
// recalibration record behind; at the end the counters, loss sums and
// breaker statistics must agree. Every third execution's body ends
// early (a bound under the threshold), the case of a scan that runs out
// of documents inside a granted block.
func TestContinueNMatchesContinue(t *testing.T) {
	const (
		execs    = 400
		interval = 7
		sla      = 0.05
	)
	for _, c := range []struct {
		name     string
		mode     LoopMode
		interval int
		disabled bool
		panicIn  string // callback that panics on odd monitored executions
		trip     bool   // threshold 1: the first panic opens the breaker
		batch    int    // > 0: drive LoopBatch members instead of LoopExecs
	}{
		{name: "static", mode: Static},
		{name: "static-monitored", mode: Static, interval: interval},
		{name: "adaptive", mode: Adaptive},
		{name: "adaptive-monitored", mode: Adaptive, interval: interval},
		{name: "static-disabled", mode: Static, interval: interval, disabled: true},
		{name: "adaptive-disabled", mode: Adaptive, interval: interval, disabled: true},
		{name: "static-record-panics", mode: Static, interval: interval, panicIn: "record"},
		{name: "adaptive-delta-panics", mode: Adaptive, interval: interval, panicIn: "delta"},
		{name: "static-breaker-open", mode: Static, interval: interval, panicIn: "record", trip: true},
		{name: "adaptive-breaker-open", mode: Adaptive, interval: interval, panicIn: "delta", trip: true},
		{name: "batch-static-monitored", mode: Static, interval: 16, batch: 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() (*Loop, *traceQoS) {
				cfg := LoopConfig{
					Name: "l", Model: testLoopModel(t), SLA: sla, Mode: c.mode,
					SampleInterval: c.interval, Disabled: c.disabled,
				}
				if c.trip {
					cfg.BreakerThreshold, cfg.BreakerCooldown = 1, 10
				}
				l, err := NewLoop(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return l, &traceQoS{lawQoS: lawQoS{
					seqQoS: seqQoS{losses: lossSequence(42, execs, sla)}, panicIn: c.panicIn}}
			}
			type step struct {
				res      Result
				iters    int
				calls    []qosCall
				level    float64
				adaptive model.AdaptiveParams
				lastSeq  int64
				lastAct  Action
			}
			// drive runs the whole stream on a fresh loop; run executes one
			// loop body under the stop law it is given.
			drive := func(run func(continuer, int) int) (*Loop, []step) {
				l, q := mk()
				var steps []step
				one := func(k int, c2 continuer, finish func(int) Result) {
					seq := k + 1
					q.panicNow = c.interval > 0 && seq%c.interval == 0 && (seq/c.interval)%2 == 1
					bound := 3200
					if k%3 == 2 {
						bound = 60 // under the smallest level the model has
					}
					q.calls = nil
					iters := run(c2, bound)
					res := finish(iters)
					last, act := l.LastRecalibration()
					steps = append(steps, step{res, iters, q.calls, l.Level(), l.Adaptive(), last, act})
				}
				if c.batch > 0 {
					for k := 0; k < execs; {
						b, err := l.ExecN(c.batch, q)
						if err != nil {
							t.Fatal(err)
						}
						for b.Next() {
							one(k, b, b.End)
							k++
						}
						b.Finish()
					}
					return l, steps
				}
				for k := 0; k < execs; k++ {
					e, err := l.Begin(q)
					if err != nil {
						t.Fatal(err)
					}
					one(k, e, e.Finish)
				}
				return l, steps
			}

			rng := rand.New(rand.NewSource(7))
			lu, want := drive(runPerIteration)
			lb, got := drive(func(c continuer, bound int) int { return runBlocks(t, c, bound, rng) })

			var records, deltas, stops, forced int
			for k := range want {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("execution %d diverged:\n  blocks:        %+v\n  per iteration: %+v", k, got[k], want[k])
				}
				for _, call := range want[k].calls {
					switch call.kind {
					case 'R':
						records++
					case 'D':
						deltas++
					}
				}
				if want[k].res.Approximated {
					stops++
				}
				if c.interval > 0 && (k+1)%c.interval == 0 && !want[k].res.Monitored {
					forced++
				}
			}
			// Each row must exercise what it is named for.
			switch {
			case c.disabled:
				if stops+records+deltas != 0 {
					t.Fatalf("disabled loop approximated: %d stops, %d records, %d deltas", stops, records, deltas)
				}
			case c.trip:
				if forced == 0 || lu.Breaker().Trips == 0 {
					t.Fatalf("breaker never forced an execution precise: %+v", lu.Breaker())
				}
			default:
				if stops == 0 {
					t.Fatal("no execution terminated early")
				}
				if c.interval > 0 && records == 0 {
					t.Fatal("no monitored execution recorded a stop point")
				}
				if c.mode == Adaptive && deltas == 0 {
					t.Fatal("Delta was never sampled")
				}
				if c.panicIn != "" && lu.Breaker().ContainedPanics == 0 {
					t.Fatal("no callback panic was contained")
				}
			}

			be, bm, bl := lb.Stats()
			ue, um, ul := lu.Stats()
			if be != ue || bm != um || math.Float64bits(bl) != math.Float64bits(ul) {
				t.Fatalf("stats diverged: blocks (%d, %d, %v) vs per iteration (%d, %d, %v)", be, bm, bl, ue, um, ul)
			}
			if bs, us := lb.State().LossSum, lu.State().LossSum; math.Float64bits(bs) != math.Float64bits(us) {
				t.Fatalf("loss sum diverged: blocks %v vs per iteration %v", bs, us)
			}
			if lb.Breaker() != lu.Breaker() {
				t.Fatalf("breaker stats diverged: blocks %+v vs per iteration %+v", lb.Breaker(), lu.Breaker())
			}
		})
	}
}

package core

import (
	"fmt"
	"sync"
)

// The batched execution tier.
//
// At serving scale the controller itself becomes the energy tax the
// paper warns about (§4.1: the machinery must cost less than the work it
// saves): every execution pays a pool round-trip, a snapshot load, a
// counter add, and a breaker consult. ExecN/CallN amortize all of that
// across a batch — one snapshot load, one sampling decision (monitoring
// one deterministic member), and counter updates folded into one add per
// batch — exactly the amortization argument Capri and the
// significance-aware runtimes make for per-input control (PAPERS.md).
//
// Semantics are unchanged from the unbatched path: when Sample_QoS is at
// least the batch size, a batched stream monitors the same executions,
// measures the same losses, and applies the same recalibration actions
// as the equivalent unbatched stream (the observation is applied at the
// monitored member's End, and the snapshot is reloaded for the members
// after it, so level trajectories are identical — held by
// TestReferenceModel). A shorter interval collapses to at most one monitored
// member per batch. Breaker and event behavior are untouched: the
// breaker is consulted once per batch, forces a whole batch precise, and
// monitored-member panics charge it exactly as unbatched ones do.

// BatchResult summarizes one finished batch.
type BatchResult struct {
	// N is the number of members actually executed.
	N int
	// Approximated counts members that terminated early.
	Approximated int
	// Monitored counts monitored members (0 or 1 per batch).
	Monitored int
	// Loss is the monitored member's measured QoS loss, when one ran
	// cleanly.
	Loss float64
	// Recalibrated is the recalibration action the monitored member's
	// observation produced, if any.
	Recalibrated Action
	// ContainedPanic reports that the monitored member's QoS callbacks
	// panicked; the observation was discarded and the breaker charged.
	ContainedPanic bool
}

// LoopBatch is one batch of executions of an approximated loop: the
// batched analogue of LoopExec. The caller drives it as
//
//	b, _ := loop.ExecN(64, qos)
//	for b.Next() {
//	        i := 0
//	        for ; b.Continue(i) && step(); i++ {
//	        }
//	        b.End(i)
//	}
//	res := b.Finish()
//
// Continue (and its block form ContinueN) is the embedded loopMember's —
// the same stop law, monitored and non-monitored, as LoopExec's. Batches
// are pooled like LoopExec handles: Finish recycles the batch, which
// must not be used afterwards. A LoopBatch is not safe for concurrent
// use (each goroutine runs its own batches; the loop itself stays safe
// for concurrent use).
type LoopBatch struct {
	// The current member. Its approximation snapshot is shared by the
	// batch's members and reloaded after the monitored member applies
	// its observation; one Select-stage decision (ExecNFeat: one Features
	// value describes the whole batch) covers them all.
	loopMember

	n         int   // configured batch size
	k         int   // members started so far
	monitorAt int   // offset of the monitored member; -1 when none
	first     int64 // sequence number of member 0

	res BatchResult
}

// batchPool recycles LoopBatch objects so steady-state batches are
// allocation-free.
var batchPool = sync.Pool{New: func() any { return new(LoopBatch) }}

// ExecN starts a batch of n executions of the loop. It loads the
// approximation snapshot once, makes one sampling decision for the
// whole batch, and consults the breaker once; the per-member cost is
// then just the Continue checks. qos plays the same role as in Begin
// and, like there, must implement DeltaQoS in Adaptive mode. A batch
// finished before all n members ran returns the unused executions to
// the counters. ExecN is ExecNFeat with no Features.
func (l *Loop) ExecN(n int, qos LoopQoS) (*LoopBatch, error) { return l.execN(n, qos, Features{}) }

// ExecNFeat starts a batch with per-input Features describing the
// batch's members (the batched ExecFeat): the Select stage chooses one
// level for the whole batch, and the monitored member's loss corrects
// the chosen bucket. With no Selector installed the batch is ExecN's.
func (l *Loop) ExecNFeat(n int, qos LoopQoS, f Features) (*LoopBatch, error) {
	return l.execN(n, qos, f)
}

// execN is the one Select+Execute front half of the batched pipeline; a
// zero f skips the Select stage (stageSelect).
func (l *Loop) execN(n int, qos LoopQoS, f Features) (*LoopBatch, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: batch size %d < 1", n)
	}
	delta, err := l.checkQoS(qos)
	if err != nil {
		return nil, err
	}
	st := l.state.Load()
	o := l.stageExecuteBatch(n)
	sd := l.stageSelect(f, obs{forced: o.forced}, st.disabled || st.forceOff)
	// A pooled batch comes back zeroed (Finish), so only the cursor's
	// non-zero fields need setting.
	b := batchPool.Get().(*LoopBatch)
	b.n, b.monitorAt, b.first = n, o.monitorAt, o.first
	b.init(l, qos, delta, st, o.forced, o.probe, &sd)
	return b, nil
}

// Next advances to the batch's next member, reporting false once all n
// members have run. It must be called before the member's first
// Continue.
func (b *LoopBatch) Next() bool {
	if b.k >= b.n {
		return false
	}
	b.arm(b.k == b.monitorAt)
	b.k++
	return true
}

// End completes the current member, mirroring LoopExec.Finish: a
// monitored member measures its loss and hands the observation to the
// controller immediately (so recalibration lands exactly where the
// unbatched stream would put it), then the batch reloads the snapshot
// for its remaining members.
func (b *LoopBatch) End(finalIter int) Result {
	if b.monitor {
		return b.endMonitored(finalIter)
	}
	// Only a non-monitored member can have terminated early: a monitored
	// one always runs to its natural end.
	if b.terminated {
		b.res.Approximated++
	}
	return b.result()
}

func (b *LoopBatch) endMonitored(finalIter int) Result {
	res := b.observe(b.first+int64(b.k-1), finalIter)
	if res.ContainedPanic {
		b.res.ContainedPanic = true
	} else {
		b.res.Monitored++
		b.res.Loss = res.Loss
		b.res.Recalibrated = res.Recalibrated
	}
	// The observation may have moved the level (or the breaker may have
	// tripped): the batch's remaining members read the fresh snapshot,
	// exactly as unbatched Begins would. A Select-stage choice still
	// governs the remaining members' level.
	b.load(b.loop.state.Load(), false)
	return res
}

// Finish completes the batch: unused executions are returned to the
// counters and the batch handle is recycled (it must not be used again
// afterwards).
func (b *LoopBatch) Finish() BatchResult {
	l := b.loop
	if l == nil {
		// Finish on an already-recycled handle: report empty rather than
		// corrupting the pool with a double Put.
		return BatchResult{}
	}
	l.reconcileBatch(b.n, b.k)
	res := b.res
	res.N = b.k
	*b = LoopBatch{}
	batchPool.Put(b)
	return res
}

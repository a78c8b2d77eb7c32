package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// The generic controller runtime: a staged control pipeline.
//
// The paper's operational phase (§2.2.3) is one control law regardless of
// what is being approximated. This file organizes that law as an explicit
// pipeline run around every execution:
//
//	Execute — advance the execution counter, decide whether this
//	          execution is monitored (count % Sample_QoS == 0), and
//	          consult the panic breaker. stageExecute / stageExecuteBatch.
//	Observe — on monitored executions, measure the QoS loss precisely,
//	          accumulate it, and feed the recalibration policy.
//	Correct — apply the policy's decision copy-on-write (the reactive
//	          law). Observe and Correct share stageObserveCorrect.
//
// Loop adds a Select stage in front (selector.go): per-input Features
// mapped to a level through an installed Selector, whose Correct half
// runs after the policy's.
//
// Loop and the version ladder under Func and Func2 (ladder.go) each add
// only (a) the shape of their immutable approximation snapshot, (b) how
// a policy action translates into that snapshot, and (c) one body per
// execution shape (Loop: begin and ExecN; the ladder: call and callN).
// Everything else — the counters, the loss total, the sampling
// decision, the panic breaker, policy invocation and event emission,
// Stats, and the copy-on-write publish protocol — lives here, once, as
// controller[S].
//
// S is the controller's immutable snapshot type (loopState,
// ladderState). The hot path reads it with one atomic load; every
// mutation copies the current snapshot under mu, edits the copy, and
// publishes it atomically, so non-monitored executions never take a
// lock.

// Controller is the operational surface every controller kind exposes:
// identity, runtime statistics, the scalar approximation level, the
// live sampling interval and last recalibration, breaker health, and
// versioned state checkpointing.
type Controller interface {
	Name() string
	SLA() float64
	Stats() (executions, monitored int64, meanLoss float64)
	Level() float64
	SampleInterval() int64
	LastRecalibration() (seq int64, act Action)
	Breaker() BreakerStats
	ApproxEnabled() bool
	MarshalState() ([]byte, error)
	RestoreStateJSON(data []byte) error
}

// Every controller kind satisfies the Controller surface.
var (
	_ Controller = (*Loop)(nil)
	_ Controller = (*Func)(nil)
	_ Controller = (*Func2)(nil)
)

// ctrlOptions are the configuration fields every controller kind shares;
// each concrete config struct maps onto it in its constructor.
type ctrlOptions struct {
	Name           string
	SLA            float64
	SampleInterval int
	Policy         RecalibratePolicy
	OnEvent        EventFunc
}

// controller is the generic operational-phase runtime shared by Loop,
// Func, and Func2 (embedded by pointer-receiver methods; the containing
// structs must not be copied — greenlint's ctrlcopy check enforces
// this).
type controller[S any] struct {
	name    string
	sla     float64
	onEvent EventFunc

	// state is the immutable snapshot of the controller's mutable
	// approximation parameters, read with a single atomic load on the
	// hot path and replaced copy-on-write under mu.
	state atomic.Pointer[S]

	// rate is the paper's Sample_QoS with its reciprocal, kept out of
	// the snapshot so the shared sampling decision needs no knowledge of
	// S. Never nil after init; a zero interval disables monitoring.
	rate      atomic.Pointer[sampleRate]
	count     atomic.Int64 // executions since creation (or restore)
	monitored atomic.Int64

	// lossTotal is the sum of every monitored loss, as float64 bits:
	// written only under mu (every observation takes it for the policy
	// anyway), read lock-free by Stats.
	lossTotal atomic.Uint64
	brk       *Breaker

	// lastRecalSeq/lastRecalAct record the most recent Correct stage
	// (sequence number of the monitored execution and the action
	// applied), so operators can see when and how each controller last
	// recalibrated.
	lastRecalSeq atomic.Int64
	lastRecalAct atomic.Int32

	mu     sync.Mutex // serializes snapshot rebuilds and the policy
	policy RecalibratePolicy
	// interval is the configured Sample_QoS, which the live rate returns
	// to when the policy's window closes; windowOpen is whether the
	// policy's last decision held one open (both under mu).
	interval   int64
	windowOpen bool
}

// SampleInterval returns the live Sample_QoS interval (zero when
// monitoring is disabled).
func (c *controller[S]) SampleInterval() int64 { return c.rate.Load().iv }

// LastRecalibration reports the sequence number of the most recent
// monitored observation and the action the Correct stage applied for it
// (ActNone and zero before any recalibration has acted).
func (c *controller[S]) LastRecalibration() (seq int64, act Action) {
	return c.lastRecalSeq.Load(), Action(c.lastRecalAct.Load())
}

// init validates the shared configuration and wires the runtime. kind
// ("loop", "func", "func2") prefixes rejection messages so each
// controller keeps its established error text.
func (c *controller[S]) init(kind string, o ctrlOptions) error {
	if !(0 < o.SLA && o.SLA <= 1) {
		return fmt.Errorf("core: %s %q: SLA %v outside (0,1]", kind, o.Name, o.SLA)
	}
	if o.SampleInterval < 0 {
		return fmt.Errorf("core: %s %q: negative SampleInterval %d", kind, o.Name, o.SampleInterval)
	}
	c.name = o.Name
	c.sla = o.SLA
	c.onEvent = o.OnEvent
	c.policy = o.Policy
	switch w := c.policy.(type) {
	case nil:
		// Sized by the constructor once the model is read (sizeWindow).
		c.policy = &WindowedPolicy{sampled: true}
	case *WindowedPolicy:
		// A private window: one shared with another controller would
		// close on that controller's observations.
		c.policy = &WindowedPolicy{Window: w.Window}
	}
	c.interval = int64(o.SampleInterval)
	c.setInterval(c.interval)
	c.brk = newBreaker(ctrlCooldown(c.interval))
	return nil
}

// sizeWindow sets the window of the policy a nil Policy installed to
// size(), which is called only then.
func (c *controller[S]) sizeWindow(size func() int) {
	if w, ok := c.policy.(*WindowedPolicy); ok && w.sampled {
		w.Window = size()
	}
}

// ctrlCooldown is a controller breaker's base cool-down: four sampling
// intervals, floored at breakerCooldown so a breaker on an
// every-execution-monitored controller still backs off meaningfully.
func ctrlCooldown(interval int64) int64 { return max(breakerCooldown, 4*interval) }

// obs is the per-execution decision the Execute stage makes: the
// execution's sequence number, whether it is monitored, whether the
// breaker forces it precise, and whether it is the breaker's half-open
// probe.
type obs struct {
	seq     int64
	monitor bool
	forced  bool
	probe   bool
}

// stageExecute runs the Execute stage's shared per-execution protocol:
// advance the execution counter, decide whether this execution is
// monitored (count % Sample_QoS == 0), and consult the breaker. A
// forced-precise execution has monitoring suspended (the faulty
// callbacks must stop running); a half-open probe is forced monitored.
// Lock-free.
func (c *controller[S]) stageExecute() obs {
	n := c.count.Add(1)
	o := obs{seq: n, monitor: c.rate.Load().divides(n)}
	if !c.brk.closed() {
		allow, probe := c.brk.Allow(n)
		o.forced, o.probe = !allow, probe
		if o.forced {
			o.monitor = false
		}
		if o.probe {
			o.monitor = true
		}
	}
	return o
}

// sampleRate is Sample_QoS with the reciprocal that answers "is this
// execution monitored" without a hardware divide: immutable, replaced
// whole behind one atomic pointer, so a reader never tests an interval
// against another interval's reciprocal.
type sampleRate struct {
	iv int64
	m  uint64 // ⌈2⁶⁴/iv⌉ mod 2⁶⁴ (zero for iv ≤ 1)
}

func newSampleRate(iv int64) *sampleRate {
	r := &sampleRate{iv: iv}
	if iv > 1 {
		r.m = math.MaxUint64/uint64(iv) + 1
	}
	return r
}

// divides reports iv > 0 && n%iv == 0. While both fit 32 bits it is the
// Lemire–Kaser divisibility test — n·m mod 2⁶⁴ ≤ m−1, exact there (for
// iv 1, m wraps to zero and every n passes) — and the plain remainder
// beyond (negative n included).
func (r *sampleRate) divides(n int64) bool {
	if r.iv <= 0 {
		return false
	}
	if uint64(n|r.iv) < 1<<32 {
		return uint64(n)*r.m <= r.m-1
	}
	return n%r.iv == 0
}

// batchObs is the per-batch decision the Execute stage makes: the
// sequence number of the batch's first member, the offset of the (at
// most one) monitored member, whether the breaker forces the whole
// batch precise, and whether the monitored member is the breaker's
// half-open probe.
type batchObs struct {
	first     int64 // sequence number of member 0
	monitorAt int   // offset of the monitored member; -1 when none
	forced    bool
	probe     bool
}

// stageExecuteBatch runs the Execute stage once for a batch of n
// executions: one counter add covers all n sequence numbers, one
// interval load makes one sampling decision for the whole batch, and
// the breaker is consulted once. The monitored member is deterministic:
// the first member whose sequence number is a multiple of Sample_QoS.
// When the interval is at least the batch size this reproduces the
// unbatched schedule exactly; a shorter interval collapses to at most
// one monitored member per batch (the amortization contract — see
// DESIGN.md §12). Lock-free.
func (c *controller[S]) stageExecuteBatch(n int) batchObs {
	end := c.count.Add(int64(n))
	first := end - int64(n) + 1
	b := batchObs{first: first, monitorAt: -1}
	if !c.brk.closed() {
		allow, probe := c.brk.Allow(end)
		b.forced, b.probe = !allow, probe
		if b.forced {
			// Breaker open: forced precise, monitoring suspended for the
			// whole batch.
			return b
		}
	}
	if iv := c.rate.Load().iv; iv > 0 {
		if next := ((first + iv - 1) / iv) * iv; next <= end {
			b.monitorAt = int(next - first)
		}
	}
	if b.probe && b.monitorAt < 0 {
		// A half-open probe is forced monitored; pin it to member 0.
		b.monitorAt = 0
	}
	return b
}

// reconcileBatch returns unused executions to the counter when a batch
// is finished after running only ran of its n members, keeping Stats
// exact for abandoned batches.
func (c *controller[S]) reconcileBatch(n, ran int) {
	if ran < n {
		c.count.Add(int64(ran - n))
	}
}

// stageObserveCorrect runs the Observe and Correct stages for one
// monitored execution. A contained panic is a failed observation: its
// loss value would be garbage, so it is discarded — never counted into
// the monitored statistics, never fed to the policy — and charged to
// the breaker.
//
// Observe: update the counters, accumulate the loss, and feed the
// recalibration policy. Correct: hand the policy's decision to apply
// with the live snapshot and the loss the policy judged (the window
// mean of a WindowedPolicy, else the observation); apply returns the
// snapshot after it, the action it applied (ActNone when the law
// declines the decision) and the level for the event, and only an
// applied action is published — so the common no-change observation
// allocates nothing. Then record the recalibration metadata, and hand
// the loss to correct (nil for none: Loop's Select-stage repair,
// selector.go). The event fires outside the lock, after both. Returns
// the action applied (ActNone for failed observations).
func (c *controller[S]) stageObserveCorrect(o obs, loss float64, panicked bool, apply func(cur *S, a Action, judged float64) (S, Action, float64), correct func(loss float64)) Action {
	if panicked {
		c.brk.OnFailure(o.seq, o.probe)
		return ActNone
	}
	c.brk.OnSuccess(o.probe)

	c.monitored.Add(1)

	c.mu.Lock()
	c.lossTotal.Store(math.Float64bits(c.lossSum() + loss))
	d := c.policy.Observe(loss, c.sla)
	if d.Monitor {
		c.setInterval(1)
	} else if c.windowOpen {
		c.setInterval(c.interval)
	}
	c.windowOpen = d.Monitor
	judged := loss
	if w, ok := c.policy.(*WindowedPolicy); ok {
		judged = w.judged
	}
	next, act, level := apply(c.state.Load(), d.Action, judged)
	if act != ActNone {
		p := new(S)
		*p = next
		c.state.Store(p)
	}
	c.lastRecalSeq.Store(o.seq)
	c.lastRecalAct.Store(int32(act))
	c.mu.Unlock()

	if correct != nil {
		correct(loss)
	}

	if c.onEvent != nil {
		c.onEvent(Event{
			Unit: c.name, Loss: loss, SLA: c.sla,
			Action: act, Level: level,
		})
	}
	return act
}

// mutate rebuilds the published snapshot under the lock (copy-on-write).
func (c *controller[S]) mutate(fn func(*S)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.state.Load()
	fn(&next)
	c.state.Store(&next)
}

// setInterval publishes a sampling interval with its reciprocal. An
// unchanged interval publishes nothing: every observation inside a
// window restates interval 1 and must not cost an allocation each.
func (c *controller[S]) setInterval(n int64) {
	if r := c.rate.Load(); r == nil || r.iv != n {
		c.rate.Store(newSampleRate(n))
	}
}

// restoreCounters installs the shared counter fields of a validated
// snapshot and publishes the edited approximation state, all under the
// lock so restore is atomic with respect to recalibration. The
// snapshot's interval becomes the configured one, live at once: an open
// window closes, and later windows return to it. The controller then
// starts over as a fresh one built with that interval would: its private
// WindowedPolicy drops the partial window (a user's own policy is left
// alone) and its breaker closes with that interval's cool-down, since the
// losses and the open-at count they judged belong to the replaced run.
func (c *controller[S]) restoreCounters(interval, count, monitored int64, lossSum float64, edit func(*S)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.state.Load()
	edit(&next)
	c.state.Store(&next)
	c.interval, c.windowOpen = interval, false
	c.setInterval(interval)
	if w, ok := c.policy.(*WindowedPolicy); ok { // always init's private copy
		w.n, w.sum = 0, 0
	}
	c.brk.reset(ctrlCooldown(interval))
	c.count.Store(count)
	c.monitored.Store(monitored)
	c.lossTotal.Store(math.Float64bits(lossSum))
}

// lossSum reads the total monitored loss.
func (c *controller[S]) lossSum() float64 {
	return math.Float64frombits(c.lossTotal.Load())
}

// Name returns the configured controller name.
func (c *controller[S]) Name() string { return c.name }

// SLA returns the configured QoS service-level agreement.
func (c *controller[S]) SLA() float64 { return c.sla }

// Stats reports runtime counters: executions, monitored executions, and
// the mean observed loss over monitored executions. It reads only atomic
// counters, so it never blocks — or is blocked by — executions in
// flight.
func (c *controller[S]) Stats() (executions, monitored int64, meanLoss float64) {
	executions = c.count.Load()
	monitored = c.monitored.Load()
	if monitored > 0 {
		meanLoss = c.lossSum() / float64(monitored)
	}
	return executions, monitored, meanLoss
}

// Breaker snapshots the controller's circuit-breaker state (panic
// containment on the monitored path; see resilience.go).
func (c *controller[S]) Breaker() BreakerStats { return c.brk.Stats() }

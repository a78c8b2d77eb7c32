package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"green/internal/model"
)

// LoopMode selects between the two QoS_Approx flavors of §2.2.2.
type LoopMode int

// Loop approximation modes.
const (
	// Static terminates the loop once the iteration count exceeds the
	// model-supplied threshold M.
	Static LoopMode = iota
	// Adaptive applies the law of diminishing returns: after a floor of M
	// iterations, QoS improvement is sampled every Period iterations and
	// the loop terminates when the improvement per period drops to
	// TargetDelta or below.
	Adaptive
)

// String implements fmt.Stringer.
func (m LoopMode) String() string {
	if m == Adaptive {
		return "adaptive"
	}
	return "static"
}

// LoopQoS is the programmer-supplied QoS_Compute for a loop. The paper's
// single C function with a return_QoS flag maps onto two methods:
//
//	QoS_Compute(0, i, ...) -> Record(i):  store the QoS the approximate
//	                                      (early-terminated) run would
//	                                      produce at iteration i.
//	QoS_Compute(1, i, ...) -> Loss(i):    compare the recorded QoS against
//	                                      the current (precise) QoS and
//	                                      return the fractional loss.
type LoopQoS interface {
	Record(iter int)
	Loss(iter int) float64
}

// DeltaQoS is the additional capability Adaptive mode needs: the QoS
// improvement achieved over the most recent measurement period. An
// implementation typically snapshots its QoS metric on each call and
// returns the difference from the previous snapshot.
type DeltaQoS interface {
	LoopQoS
	Delta(iter int) float64
}

// LoopConfig configures an approximable loop (the arguments of the
// paper's approx_loop annotation plus the constructed model).
type LoopConfig struct {
	// Name identifies the loop in reports.
	Name string
	// Model is the QoS model built in the calibration phase.
	Model *model.LoopModel
	// SLA is the maximal tolerated fractional QoS loss; it must lie in
	// (0,1].
	SLA float64
	// Mode selects static or adaptive approximation.
	Mode LoopMode
	// SampleInterval is the paper's Sample_QoS: every SampleInterval-th
	// execution is monitored (run precisely, loss measured, recalibration
	// fed). Zero disables runtime recalibration; negative values are
	// rejected.
	SampleInterval int
	// Policy is the recalibration policy; nil selects Figure 3, a
	// WindowedPolicy with a window of one.
	Policy RecalibratePolicy
	// Step is the accuracy-adjustment step for increase/decrease accuracy
	// on the iteration threshold M. Zero derives it from the model's
	// calibration knot spacing.
	Step float64
	// MinLevel is the floor below which decrease_accuracy will not push
	// M. Zero uses the model's smallest calibrated level.
	MinLevel float64
	// Disabled forces QoS_Approx to always answer "do not approximate";
	// the loop then always runs precisely. Used by the paper's overhead
	// experiment (§4.1) and by global recalibration's last resort.
	Disabled bool
	// OnEvent, when non-nil, receives an Event after every monitored
	// execution.
	OnEvent EventFunc
}

// loopState is the immutable snapshot of the loop's mutable approximation
// state, published through the embedded controller's copy-on-write
// protocol (controller.go): Begin reads it with a single atomic load and
// the operational hot path never takes a lock.
type loopState struct {
	level    float64 // current static threshold M
	adaptive model.AdaptiveParams
	disabled bool

	// forceOff is the sticky disable: set by cfg.Disabled or
	// DisableApprox, cleared only by a Restore whose state has it off.
	// The model-driven disabled flag (unsatisfiable SLA) can instead be
	// cleared by recalibration pressure.
	forceOff bool
}

// Loop is an approximable loop: the operational-phase object synthesized
// from an approx_loop annotation. It is safe for concurrent use; the
// Begin/Continue/Finish path of a non-monitored execution is lock-free
// and allocation-free. The counters, sampling decision, breaker, policy
// plumbing, and Stats come from the embedded generic controller; the
// Select stage (selector.go) is the loop's own.
type Loop struct {
	controller[loopState]

	cfg      LoopConfig
	step     float64
	minLevel float64

	// sel is the optional Select stage. Nil when no Selector is
	// installed, so an execution with Features pays one atomic load and
	// a branch, nothing more (one without pays a flag test).
	sel atomic.Pointer[selectorSlot]

	// Select-stage counters: hits (the Selector chose the level),
	// fallbacks (the Selector declined valid Features — an input outside
	// the calibrated buckets), overrides (the choice was discarded
	// because the breaker forced precise or approximation was disabled),
	// and corrections (Correct-stage drift repairs applied to the
	// Selector).
	selHits        atomic.Int64
	selFallbacks   atomic.Int64
	selOverrides   atomic.Int64
	selCorrections atomic.Int64
}

// normalizeAdaptive rounds a positive fractional Period to a whole number
// of iterations (minimum 1). approxSaysStop samples improvement every
// int(Period) iterations; a Period in (0,1) passes a `Period <= 0` guard
// yet truncates to zero and would panic on the modulo, so fractional
// model output is rounded here, at every boundary where adaptive
// parameters enter the controller.
func normalizeAdaptive(p model.AdaptiveParams) model.AdaptiveParams {
	if p.Period > 0 {
		p.Period = math.Max(1, math.Round(p.Period))
	}
	return p
}

// NewLoop creates the loop controller, deriving the initial approximation
// parameters from the model and the SLA exactly as the paper's
// QoS_Model_Loop interface does. If the model cannot satisfy the SLA at
// any calibrated level, the loop starts disabled (precise) but still
// monitors and can be re-enabled by recalibration pressure downward.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: loop requires a model")
	}
	l := &Loop{
		cfg:      cfg,
		step:     cfg.Step,
		minLevel: cfg.MinLevel,
	}
	if err := l.init("loop", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
	}); err != nil {
		return nil, err
	}
	st := loopState{forceOff: cfg.Disabled}
	levels := cfg.Model.Levels()
	if l.minLevel == 0 && len(levels) > 0 {
		l.minLevel = levels[0]
	}
	if l.step == 0 {
		if len(levels) >= 2 {
			l.step = levels[1] - levels[0]
		} else {
			l.step = math.Max(1, cfg.Model.BaseLevel/10)
		}
	}
	m, err := cfg.Model.StaticParams(cfg.SLA)
	switch {
	case err == nil:
		st.level = m
	case errors.Is(err, model.ErrUnsatisfiable):
		st.level = cfg.Model.BaseLevel
		st.disabled = true
	default:
		return nil, fmt.Errorf("core: loop %q: %w", cfg.Name, err)
	}
	if cfg.Mode == Adaptive {
		ap, err := cfg.Model.AdaptiveParamsFor(cfg.SLA)
		if err != nil && !errors.Is(err, model.ErrUnsatisfiable) {
			return nil, fmt.Errorf("core: loop %q: %w", cfg.Name, err)
		}
		if err == nil {
			if ap.Period <= 0 || ap.TargetDelta <= 0 {
				return nil, fmt.Errorf("core: loop %q: adaptive parameters missing Period/TargetDelta (got Period=%v TargetDelta=%v)",
					cfg.Name, ap.Period, ap.TargetDelta)
			}
			st.adaptive = normalizeAdaptive(ap)
		}
	}
	l.state.Store(&st)
	return l, nil
}

// SetLevel overrides the current static threshold M. Used by experiments
// that simulate an imperfect QoS model (paper Figure 14) and by the fixed
// M-*N versions of the evaluation.
func (l *Loop) SetLevel(m float64) {
	l.mutate(func(st *loopState) { st.level = m })
}

// Level returns the current static threshold M.
func (l *Loop) Level() float64 {
	return l.state.Load().level
}

// Adaptive returns the current adaptive parameters.
func (l *Loop) Adaptive() model.AdaptiveParams {
	return l.state.Load().adaptive
}

// SetAdaptive overrides the adaptive parameters. Programs whose runtime
// QoS-improvement measure (DeltaQoS) is on a different scale than the
// model's loss curve — e.g. Monte-Carlo estimators, where per-period image
// movement exceeds the distance-to-final improvement — calibrate
// TargetDelta in their own units and install it here. Adaptive mode needs
// both a positive Period and a positive TargetDelta; incomplete
// parameters are rejected (they would silently disable early
// termination). A fractional Period is rounded to a whole number of
// iterations (minimum 1).
func (l *Loop) SetAdaptive(p model.AdaptiveParams) error {
	if p.Period <= 0 || p.TargetDelta <= 0 {
		return fmt.Errorf("core: loop %q: adaptive parameters need positive Period and TargetDelta (got Period=%v TargetDelta=%v)",
			l.cfg.Name, p.Period, p.TargetDelta)
	}
	p = normalizeAdaptive(p)
	l.mutate(func(st *loopState) { st.adaptive = p })
	return nil
}

// loopMember is one execution of the approximated loop, as Figure 3
// inlines it around the loop body: the approximation snapshot it runs
// under, the programmer's QoS callbacks, and the stop law with its
// monitored-path bookkeeping. LoopExec (one execution per handle) and
// LoopBatch (many members per handle) both embed it, so Continue, the
// contained-panic wrappers, and the monitored observation exist once
// and both front-ends inline the same per-iteration leaf.
type loopMember struct {
	loop  *Loop
	qos   LoopQoS
	delta DeltaQoS // nil in static mode

	// The approximation snapshot the member runs under (load).
	level    float64
	adaptive model.AdaptiveParams
	mode     LoopMode
	disabled bool

	probe bool // a monitored member is the breaker's half-open probe

	// Select-stage decision (ExecFeat): the Features and level the
	// Selector chose, routed back through the Correct stage when the
	// member is monitored. Zero in a batch.
	sd selDecision

	// Per-member state, reset by arm.
	monitor    bool
	panicked   bool // a QoS callback panicked and was contained
	recorded   bool // Record already called for wouldStop
	terminated bool // loop actually terminated early
	wouldStop  int  // iteration at which the approximation decided to stop
	// fast marks the common case — static mode, non-monitored member,
	// approximation enabled, not yet terminated — whose Continue check is
	// small enough to inline at the call site.
	fast bool
}

// checkQoS validates the programmer's QoS_Compute against the loop's
// mode: Adaptive needs the Delta capability.
func (l *Loop) checkQoS(qos LoopQoS) (DeltaQoS, error) {
	if qos == nil {
		return nil, errors.New("core: nil LoopQoS")
	}
	if l.cfg.Mode != Adaptive {
		return nil, nil
	}
	d, ok := qos.(DeltaQoS)
	if !ok {
		return nil, errors.New("core: adaptive mode requires DeltaQoS")
	}
	return d, nil
}

// init binds the member to its loop, callbacks, and Execute/Select-stage
// decisions, and loads the approximation snapshot. A recycled member
// arrives dirty: init, load and arm assign every field between them
// (no zeroed literal copied over the struct); TestRecycledHandleIsFresh
// holds them to it.
func (m *loopMember) init(l *Loop, qos LoopQoS, delta DeltaQoS, st *loopState, forced, probe bool, sd *selDecision) {
	m.loop, m.qos, m.delta = l, qos, delta
	m.mode, m.probe, m.sd = l.cfg.Mode, probe, *sd
	m.load(st, forced)
}

// load installs an approximation snapshot. A forced member (breaker open)
// runs precise. Where the Select stage chose the level, the choice
// governs: in static mode it is the termination threshold M; in adaptive
// mode it replaces the iteration floor while the Delta law still decides
// the exact stop.
func (m *loopMember) load(st *loopState, forced bool) {
	m.level, m.adaptive = st.level, st.adaptive
	m.disabled = st.disabled || st.forceOff || forced
	if m.sd.selected && !m.disabled {
		if m.mode == Adaptive {
			m.adaptive.M = m.sd.level
		} else {
			m.level = m.sd.level
		}
	}
}

// arm resets the per-member state for a fresh execution.
func (m *loopMember) arm(monitor bool) {
	m.monitor = monitor
	m.panicked = false
	m.recorded = false
	m.terminated = false
	m.wouldStop = -1
	m.fast = !monitor && !m.disabled && m.mode == Static
}

// approxSaysStop is the synthesized QoS_Lp_Approx (Figure 5): should the
// loop terminate early at iteration i?
func (m *loopMember) approxSaysStop(i int) bool {
	if m.disabled {
		return false
	}
	switch m.mode {
	case Static:
		return float64(i) >= m.level
	default: // Adaptive
		if m.adaptive.Period < 1 {
			return false // no viable adaptive parameters: run precisely
		}
		if float64(i) < m.adaptive.M {
			return false
		}
		if i > 0 && i%int(m.adaptive.Period) == 0 {
			return m.delta.Delta(i) <= m.adaptive.TargetDelta
		}
		return false
	}
}

// safeStop runs approxSaysStop under recover: on the monitored path a
// panicking DeltaQoS.Delta is contained rather than propagated, the
// observation is marked failed, and the loop runs to its natural end.
func (m *loopMember) safeStop(i int) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			m.panicked = true
			stop = false
		}
	}()
	return m.approxSaysStop(i)
}

// safeRecord runs LoopQoS.Record under recover and reports whether it
// completed without panicking.
func (m *loopMember) safeRecord(i int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			m.panicked = true
			ok = false
		}
	}()
	m.qos.Record(i)
	return true
}

// safeLoss runs LoopQoS.Loss under recover.
func (m *loopMember) safeLoss(finalIter int) (loss float64) {
	defer func() {
		if r := recover(); r != nil {
			m.panicked = true
			loss = 0
		}
	}()
	return m.qos.Loss(finalIter)
}

// Continue reports whether the loop body should run iteration i. In a
// normal (non-monitored) execution it returns false as soon as the
// approximation decides to terminate. In a monitored execution it always
// returns true (the loop must run to its natural end so the precise QoS
// is available) but records, via LoopQoS.Record, the QoS at the point the
// approximation would have stopped — exactly the paper's "store the QoS
// value and do not terminate the loop early" path. On that monitored path
// the user callbacks (Record, and Delta inside the stop decision) run
// under recover: a panic is contained, counted as a failed observation,
// and the execution completes precisely.
//
// The fast-flag split keeps the common case (static, non-monitored,
// enabled) inlinable: a float compare and out; monitored members,
// adaptive mode, and post-termination calls take continueSlow.
func (m *loopMember) Continue(i int) bool {
	if m.fast && float64(i) < m.level {
		return true
	}
	return m.continueSlow(i)
}

func (m *loopMember) continueSlow(i int) bool {
	if m.monitor {
		// Once the record point is captured there is nothing left to
		// decide — the loop runs to its natural end regardless — so the
		// remaining iterations skip the threshold/Delta computation. A
		// contained panic likewise stops further callback probing.
		if m.recorded || m.panicked {
			return true
		}
		if m.safeStop(i) && m.safeRecord(i) {
			m.recorded = true
			m.wouldStop = i
		}
		return true
	}
	if m.terminated {
		return false
	}
	if m.approxSaysStop(i) {
		m.fast = false // terminated: keep later Continue calls off the fast path
		m.terminated = true
		m.wouldStop = i
		return false
	}
	return true
}

// ContinueN is Continue for a block of iterations: it reports how many
// iterations k <= n the loop body may run from i before asking again,
// with 0 meaning stop. It is defined as exactly k successive true
// Continue calls — Continue(i) … Continue(i+k-1) — side effects
// included: a block ends where the next per-iteration call could fire a
// callback or answer false, so a monitored member's Record, the
// adaptive Delta samples and the stop all land on the iterations the
// per-iteration law puts them on. A caller whose body ends early (fewer
// than k iterations) just finishes, as it would on a per-iteration loop
// whose body ended there. k < n is not a stop: ask again. n must be at
// least 1.
//
//	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
//	        n := scan.StepN(k)
//	        i += n
//	        if n < k {
//	                break
//	        }
//	}
//
// The fast-flag split mirrors Continue: a static, non-monitored,
// enabled member whose whole block lies under the threshold answers on
// one float compare.
func (m *loopMember) ContinueN(i, n int) int {
	if m.fast && float64(i+n-1) < m.level {
		return n
	}
	return m.continueNSlow(i, n)
}

// continueNSlow lets Continue(i) decide iteration i — callbacks,
// containment and termination are its own — then extends the block over
// the iterations after it that are quiet.
func (m *loopMember) continueNSlow(i, n int) int {
	if n < 1 || !m.Continue(i) {
		return 0
	}
	return 1 + m.quiet(i+1, n-1)
}

// quiet reports how many of the n iterations from j on are certain to
// make Continue answer true without calling into user code.
func (m *loopMember) quiet(j, n int) int {
	switch {
	case m.disabled, m.monitor && (m.recorded || m.panicked):
		return n // nothing left to decide
	case m.mode == Static:
		// Quiet while float64(j) < level, i.e. up to ⌈level⌉: a block
		// never straddles the iteration that records or stops.
		if float64(j+n-1) < m.level {
			return n
		}
		if !(float64(j) < m.level) {
			return 0
		}
		return int(math.Ceil(m.level)) - j
	case m.adaptive.Period < 1:
		return n // no viable adaptive parameters: runs precisely
	default:
		// Delta is sampled at positive multiples of Period: stop short of
		// the next one.
		period := int(m.adaptive.Period)
		if j <= 0 {
			return 0
		}
		return min(n, (period-j%period)%period)
	}
}

// result summarizes a non-monitored member.
func (m *loopMember) result() Result {
	return Result{Approximated: m.terminated, StoppedAt: m.wouldStop}
}

// observe completes a monitored member whose execution number is seq and
// whose loop reached finalIter: it computes the QoS loss of the
// approximation via LoopQoS.Loss (when a stop point was recorded) and
// hands the observation to the shared controller's Observe and Correct
// stages, which feed the recalibration policy and apply its decision.
func (m *loopMember) observe(seq int64, finalIter int) Result {
	res := m.result()
	res.Monitored = true
	if m.recorded && !m.panicked {
		res.Loss = m.safeLoss(finalIter)
	}
	o := obs{seq: seq, monitor: true, probe: m.probe}
	res.Recalibrated = m.loop.stageObserveCorrect(o, res.Loss, m.panicked, m.loop.applyAction, m.correctSelector)
	if m.panicked {
		// Failed observation: its loss value would be garbage, so it was
		// discarded and charged to the breaker (stageObserveCorrect).
		res.Loss = 0
		res.ContainedPanic = true
	}
	return res
}

// LoopExec is the handle of one execution of the approximated loop.
// Handles are pooled: Begin draws one, Finish recycles it, so a handle
// must not be retained or used after Finish (greenlint's beginfinish
// check enforces the pairing; DESIGN.md §8 documents the contract).
type LoopExec struct {
	loopMember
	seq int64 // execution sequence number (breaker cool-down clock)
}

// execPool recycles LoopExec objects so steady-state executions are
// allocation-free.
var execPool = sync.Pool{New: func() any { return new(LoopExec) }}

// Begin starts one execution of the loop. qos supplies the programmer's
// QoS_Compute; in Adaptive mode it must also implement DeltaQoS, or Begin
// returns an error. Begin performs no locking and, in steady state, no
// allocation: it loads the current approximation snapshot atomically and
// draws the execution handle from a pool. Begin is ExecFeat with no
// Features: the Select stage is skipped.
func (l *Loop) Begin(qos LoopQoS) (*LoopExec, error) { return l.begin(qos, Features{}) }

// ExecFeat starts one execution of the loop with per-input Features:
// the Select stage maps them through the installed Selector's
// calibrated per-bucket curves to this execution's approximation
// level, and — on monitored executions — the Correct stage routes the
// measured loss back into the chosen bucket. When no Selector is
// installed (or the Selector declines the input) the execution is
// Begin's: same reactive level, same sampling schedule, same loss
// accounting, and still zero allocations in steady state.
func (l *Loop) ExecFeat(qos LoopQoS, f Features) (*LoopExec, error) { return l.begin(qos, f) }

// begin is the one Select+Execute front half of a single execution; a
// zero f skips the Select stage (stageSelect).
func (l *Loop) begin(qos LoopQoS, f Features) (*LoopExec, error) {
	delta, err := l.checkQoS(qos)
	if err != nil {
		return nil, err
	}
	st := l.state.Load()
	// A forced execution (breaker open) runs precise with monitoring
	// suspended, so the faulty callbacks stop running (stageExecute
	// already cleared o.monitor).
	o := l.stageExecute()
	sd := l.stageSelect(f, o, st.disabled || st.forceOff)
	e := execPool.Get().(*LoopExec)
	e.seq = o.seq
	e.init(l, qos, delta, st, o.forced, o.probe, &sd)
	e.arm(o.monitor)
	return e, nil
}

// Result summarizes one finished execution.
type Result struct {
	// Approximated reports whether the loop actually terminated early.
	Approximated bool
	// Monitored reports whether this execution was a monitored one.
	Monitored bool
	// Loss is the measured QoS loss (monitored executions only).
	Loss float64
	// StoppedAt is the iteration at which the approximation terminated
	// (or would have terminated, for monitored runs); -1 if it never
	// triggered.
	StoppedAt int
	// Recalibrated is the recalibration action applied, if any.
	Recalibrated Action
	// ContainedPanic reports that a QoS callback panicked during this
	// monitored execution; the panic was recovered, the observation
	// discarded, and the failure charged to the circuit breaker.
	ContainedPanic bool
}

// Finish completes the execution. finalIter is the iteration count the
// loop actually reached (its natural bound for monitored or non-triggered
// runs); a monitored execution measures its loss and recalibrates
// (loopMember.observe). Finish recycles the execution handle; the handle
// must not be used again afterwards.
func (e *LoopExec) Finish(finalIter int) Result {
	if e.loop == nil {
		// Finish on an already-recycled handle: report an empty result
		// rather than corrupting the pool with a double Put.
		return Result{StoppedAt: -1}
	}
	var res Result
	if e.monitor {
		res = e.observe(e.seq, finalIter)
	} else {
		res = e.result()
	}
	// Drop what would pin memory from the pool; the next begin assigns
	// the rest. A nil loop also marks the handle as already finished.
	e.loop, e.qos, e.delta = nil, nil, nil
	execPool.Put(e)
	return res
}

// applyAction adjusts the snapshot's approximation level for a
// recalibration action and returns the resulting level. Static mode moves
// the threshold M by one step (as in Figure 14, where M grows by 0.1N per
// adjustment); adaptive mode halves or doubles TargetDelta (requiring
// more or less improvement to continue).
func (l *Loop) applyAction(st *loopState, a Action) float64 {
	switch a {
	case ActIncrease:
		if l.cfg.Mode == Adaptive && st.adaptive.Period > 0 {
			st.adaptive.TargetDelta /= 2
		}
		st.level = math.Min(st.level+l.step, l.cfg.Model.BaseLevel)
		st.disabled = false
	case ActDecrease:
		if l.cfg.Mode == Adaptive && st.adaptive.Period > 0 {
			st.adaptive.TargetDelta *= 2
		}
		st.level = math.Max(st.level-l.step, l.minLevel)
		st.disabled = false
	}
	return st.level
}

// The Unit interface (global coordination, app.go).

// stepAccuracy applies one accuracy action outside the monitored path and
// reports whether the level moved.
func (l *Loop) stepAccuracy(a Action) (changed bool) {
	l.mutate(func(st *loopState) {
		before := st.level
		changed = l.applyAction(st, a) != before
	})
	return changed
}

// IncreaseAccuracy implements Unit.
func (l *Loop) IncreaseAccuracy() bool { return l.stepAccuracy(ActIncrease) }

// DecreaseAccuracy implements Unit.
func (l *Loop) DecreaseAccuracy() bool { return l.stepAccuracy(ActDecrease) }

// Sensitivity implements Unit: the modeled QoS-loss change per unit of
// relative work change around the current level. Global recalibration
// increases accuracy first where a large QoS gain costs little
// performance, i.e. where Sensitivity is large.
func (l *Loop) Sensitivity() float64 {
	level := l.state.Load().level
	m := l.cfg.Model
	lossNow := m.PredictLoss(level)
	lossUp := m.PredictLoss(level + l.step)
	workNow := m.PredictWork(level)
	workUp := m.PredictWork(level + l.step)
	dWork := (workUp - workNow) / m.BaseWork
	if dWork <= 0 {
		return 0
	}
	return (lossNow - lossUp) / dWork
}

// DisableApprox implements Unit: revert to the precise loop. The disable
// is sticky — recalibration pressure does not re-enable it; only a
// Restore does.
func (l *Loop) DisableApprox() {
	l.mutate(func(st *loopState) { st.forceOff = true })
}

// ApproxEnabled implements Unit.
func (l *Loop) ApproxEnabled() bool {
	st := l.state.Load()
	return !st.disabled && !st.forceOff
}

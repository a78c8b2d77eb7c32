package core

import (
	"fmt"
	"sync/atomic"

	"green/internal/model"
)

// The version ladder: the one body of both function controllers.
//
// An approximable function is a ladder of programmer-supplied versions in
// increasing precision with the precise function on top. The QoS model
// picks a base version per input (Func: a range table over one argument;
// Func2: a grid cell over two); runtime recalibration then shifts every
// selection by one global precision offset. Only the argument's shape and
// the base-version lookup differ between the two kinds, so ladder is
// generic over the argument and holds everything else once: the offset
// law, the call and batched-call bodies with their monitored member, the
// work accounting, the Unit methods, and snapshot/restore.

// arg is a ladder's argument: one float64 (Func) or an (x, y) pair
// (Func2).
type arg interface{ float64 | pair }

// pair is Func2's argument.
type pair struct{ x, y float64 }

// ladderState is the immutable snapshot a call reads with a single atomic
// load, published through the embedded controller's copy-on-write
// protocol so ordinary calls never contend on a lock.
type ladderState struct {
	offset   int
	disabled bool

	// forceOff is the sticky disable: set by the config's Disabled or
	// DisableApprox, cleared only by a Restore whose state has it off.
	// The disabled flag can instead be cleared by recalibration pressure.
	forceOff bool
}

// off reports that every call must take the precise function.
func (st *ladderState) off() bool { return st.disabled || st.forceOff }

// ladder is the controller of a version ladder of n approximate versions
// over arguments of type A. kind ("func", "func2") prefixes error text so
// each controller keeps its established phrasing.
type ladder[A arg] struct {
	controller[ladderState]

	kind string
	n    int
	qos  FuncQoS

	// rungs[v+1] is version v as a call runs it; rungs[0] is the precise
	// function (model.PreciseVersion is -1). Immutable after init.
	rungs []rung[A]

	// The base-version lookup, immutable after construction: Func's range
	// table for its SLA, read through key (nil: the argument itself), or
	// Func2's grid with each cell's base version for its SLA.
	ranges []model.Range
	key    func(float64) float64
	grid   model.Grid2D
	cells  []int

	// workMilli accumulates model work units in thousandths, so the hot
	// path can use a single atomic add for fractional unit costs.
	workMilli atomic.Int64
}

// rung is one step of the version ladder: the function, and what one
// call of it costs in model work units — also in the thousandths Work
// counts in, converted once so a non-monitored call adds an integer.
type rung[A arg] struct {
	fn    func(A) float64
	work  float64
	milli int64
}

func newRung[A arg](fn func(A) float64, work float64) rung[A] {
	return rung[A]{fn: fn, work: work, milli: milliWork(work)}
}

// milliWork converts model work units to the thousandths Work counts in.
func milliWork(w float64) int64 { return int64(w*1000 + 0.5) }

// init validates the shared configuration, takes the rungs (the precise
// function's first) and publishes the initial snapshot; a nil qos selects
// the paper's return-value measure.
func (l *ladder[A]) init(kind string, o ctrlOptions, rungs []rung[A], qos FuncQoS, disabled bool) error {
	if err := l.controller.init(kind, o); err != nil {
		return err
	}
	l.kind, l.n, l.rungs, l.qos = kind, len(rungs)-1, rungs, qos
	if l.qos == nil {
		l.qos = defaultFuncQoS
	}
	l.state.Store(&ladderState{forceOff: disabled})
	return nil
}

// Offset returns the current recalibration precision offset.
func (l *ladder[A]) Offset() int { return l.state.Load().offset }

// Level reports the precision offset as the controller's approximation
// level (the Controller surface's scalar view).
func (l *ladder[A]) Level() float64 { return float64(l.state.Load().offset) }

// shift applies the snapshot's offset to a model-chosen base version:
// precise stays precise, a shift past the ladder's top is precise, and a
// shift below its bottom stops at the cheapest version.
func (l *ladder[A]) shift(st *ladderState, base int) int {
	if base == model.PreciseVersion {
		return base
	}
	v := base + st.offset
	if v >= l.n {
		return model.PreciseVersion
	}
	if v < 0 {
		v = 0
	}
	return v
}

// version picks the ladder version for one call at a: precise while the
// breaker forces it (monitoring is suspended then) or approximation is
// off, otherwise the model's base version under the snapshot's offset.
func (l *ladder[A]) version(st *ladderState, forced bool, a A) int {
	if forced || st.off() {
		return model.PreciseVersion
	}
	return l.shift(st, l.base(a))
}

// base is the model's version for a before any offset: the grid cell's
// for a pair, the range table's for one argument, precise outside the
// calibrated domain. It asserts a's type rather than calling a method of
// A, because Go reaches a type parameter's methods through an indirect
// call.
func (l *ladder[A]) base(a A) int {
	if p, ok := any(a).(pair); ok {
		if idx := l.grid.CellIndex(p.x, p.y); idx >= 0 {
			return l.cells[idx]
		}
		return model.PreciseVersion
	}
	k := any(a).(float64)
	if l.key != nil {
		k = l.key(k)
	}
	last := len(l.ranges) - 1
	for i := range l.ranges {
		r := &l.ranges[i]
		if k >= r.Lo && (k < r.Hi || (k == r.Hi && r.Hi == l.ranges[last].Hi)) {
			return r.Version
		}
	}
	// Outside the calibrated domain the model knows nothing: precise.
	return model.PreciseVersion
}

// measured is the version a monitored call at a measures: the one an
// unmonitored call would run, except where only the offset (past the
// top) or the model-driven disable sends the call to precise. There the
// most precise version the offset reaches, min(base+offset, n−1), is
// measured, so an observation can still lower the offset or re-enable
// the site. A base choice of precise, an input outside the domain and
// the sticky disable measure nothing (precise).
func (l *ladder[A]) measured(st *ladderState, a A) int {
	base := l.base(a)
	if st.forceOff || base == model.PreciseVersion {
		return model.PreciseVersion
	}
	return min(max(base+st.offset, 0), l.n-1)
}

// at is batch member i's argument: xs[i], or the pair (xs[i], ys[i]).
func at[A arg](xs, ys []float64, i int) (a A) {
	if p, ok := any(&a).(*pair); ok {
		*p = pair{xs[i], ys[i]}
	} else {
		*any(&a).(*float64) = xs[i]
	}
	return a
}

// call is the synthesized call site of Figure 2, the one body of every
// single call:
//
//	if (QoS_Fn_Approx(x, QoS_SLA)) y = FApprox[M](x); else y = F(x);
//	count++; if ((count % Sample_QoS) == 0) QoS_ReCalibrate();
//
// On monitored calls both the precise and the selected approximate
// version run; the measured loss feeds the recalibration policy and the
// precise result is returned.
func (l *ladder[A]) call(a A) float64 {
	st := l.state.Load()
	o := l.stageExecute()
	if o.monitor {
		// Precise and approximate work are summed before the conversion,
		// as callN sums a batch: Work stays the integer it always was.
		y, work := l.monitoredCall(o, l.measured(st, a), a)
		l.addWork(work)
		return y
	}
	r := &l.rungs[l.version(st, o.forced, a)+1]
	y := r.fn(a)
	l.workMilli.Add(r.milli)
	return y
}

// callN is the one batched body: member i's argument is at(xs, ys, i)
// and its result goes to out[i]. The approximation snapshot is loaded
// once, one sampling decision covers the batch (monitoring a
// deterministic member — see stageExecuteBatch), and the execution
// counter and work accounting fold into one atomic add each. The
// monitored member is exactly call's: precise and approximate both run,
// the loss feeds the policy immediately, and the remaining members see
// the post-recalibration snapshot.
func (l *ladder[A]) callN(xs, ys, out []float64) error {
	n := len(xs)
	if len(out) < n {
		return fmt.Errorf("core: %s %q: CallN output slice %d shorter than input %d", l.kind, l.name, len(out), n)
	}
	if n == 0 {
		return nil
	}
	st := l.state.Load()
	b := l.stageExecuteBatch(n)
	total := 0.0
	for i := range xs {
		a := at[A](xs, ys, i)
		var work float64
		if i != b.monitorAt {
			r := &l.rungs[l.version(st, b.forced, a)+1]
			out[i], work = r.fn(a), r.work
		} else {
			o := obs{seq: b.first + int64(i), monitor: true, probe: b.probe}
			out[i], work = l.monitoredCall(o, l.measured(st, a), a)
			// The observation may have moved the offset: later members
			// read the fresh snapshot, exactly as unbatched calls would.
			st = l.state.Load()
		}
		total += work
	}
	l.addWork(total)
	return nil
}

// monitoredCall completes one monitored member at a, measuring version v
// (measured). The precise function runs bare — a panic there is the
// program's own and propagates as it would without Green — and its
// result is returned. If v is approximate, it and the QoS comparator run
// under recover (safeQoS): a panic is contained, the observation
// discarded, the breaker charged; the loss feeds the Observe and Correct
// stages immediately. A member that measures precise ran no approximate
// version, so it says nothing about any: it used its sampling turn but
// is not an observation — no policy vote, no Stats, no event, and no
// answer to a half-open probe. work is what the member ran.
func (l *ladder[A]) monitoredCall(o obs, v int, a A) (y, work float64) {
	y, work = l.rungs[0].fn(a), l.rungs[0].work
	if v == model.PreciseVersion {
		return y, work
	}
	loss, ran, ok := l.safeQoS(y, &l.rungs[v+1], a)
	if ran {
		work += l.rungs[v+1].work
	}
	l.stageObserveCorrect(o, loss, !ok, l.applyAction, nil)
	return y, work
}

// safeQoS runs the approximate rung r at a, then the QoS comparator
// against the precise result yp, under recover. ran reports that the
// approximate version completed (its work was done even if the
// comparator then panicked); ok is false when either panicked.
func (l *ladder[A]) safeQoS(yp float64, r *rung[A], a A) (loss float64, ran, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			loss, ok = 0, false
		}
	}()
	ya := r.fn(a)
	ran = true
	return l.qos(yp, ya), true, true
}

func (l *ladder[A]) addWork(w float64) {
	l.workMilli.Add(milliWork(w))
}

// Work returns the accumulated model work units across all calls.
// Experiments use this as the simulated cost of the
// function-approximation portion of a run.
func (l *ladder[A]) Work() float64 {
	return float64(l.workMilli.Load()) / 1000
}

// WorkReset clears the accumulated work counter.
func (l *ladder[A]) WorkReset() { l.workMilli.Store(0) }

// applyAction shifts the precision offset for a recalibration action,
// clamped to ±n, clears the model-driven disable (recalibration pressure
// can re-enable a site the model had given up on), and returns the
// resulting snapshot, the action and the level. The ladder applies every
// action; the judged loss is Loop's.
func (l *ladder[A]) applyAction(cur *ladderState, a Action, _ float64) (ladderState, Action, float64) {
	st := *cur
	switch a {
	case ActIncrease:
		if st.offset < l.n {
			st.offset++
		}
		st.disabled = false
	case ActDecrease:
		if st.offset > -l.n {
			st.offset--
		}
		st.disabled = false
	}
	return st, a, float64(st.offset)
}

// stepAccuracy applies one accuracy action outside the monitored path
// and reports whether the offset moved.
func (l *ladder[A]) stepAccuracy(a Action) (changed bool) {
	l.mutate(func(st *ladderState) {
		before := st.offset
		*st, _, _ = l.applyAction(st, a, 0)
		changed = st.offset != before
	})
	return changed
}

// IncreaseAccuracy implements Unit.
func (l *ladder[A]) IncreaseAccuracy() bool { return l.stepAccuracy(ActIncrease) }

// DecreaseAccuracy implements Unit.
func (l *ladder[A]) DecreaseAccuracy() bool { return l.stepAccuracy(ActDecrease) }

// DisableApprox implements Unit. The disable is sticky — recalibration
// pressure does not re-enable it; only a Restore does.
func (l *ladder[A]) DisableApprox() {
	l.mutate(func(st *ladderState) { st.forceOff = true })
}

// ApproxEnabled implements Unit.
func (l *ladder[A]) ApproxEnabled() bool { return !l.state.Load().off() }

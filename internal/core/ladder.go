package core

import (
	"fmt"

	"green/internal/model"
)

// The version ladder: everything Func and Func2 share.
//
// An approximable function is a ladder of programmer-supplied versions in
// increasing precision with the precise function on top. The QoS model
// picks a base version per input (Func: a range table over one argument;
// Func2: a grid cell over two); runtime recalibration then shifts every
// selection by one global precision offset. Only the base-version lookup
// and the call signature differ between the two kinds, so the offset law,
// the monitored-member observation, the Unit methods, and the shared half
// of snapshot/restore live here once and both kinds embed it.

// ladderState is the immutable snapshot a call reads with a single atomic
// load, published through the embedded controller's copy-on-write
// protocol so ordinary calls never contend on a lock.
type ladderState struct {
	offset   int
	disabled bool

	// forceOff is the sticky disable: set by the config's Disabled or
	// DisableApprox, cleared only by EnableApprox. The disabled flag can
	// instead be cleared by recalibration pressure.
	forceOff bool
}

// off reports that every call must take the precise function.
func (st *ladderState) off() bool { return st.disabled || st.forceOff }

// ladder is the controller of a version ladder of n approximate versions.
// kind ("func", "func2") prefixes error text so each controller keeps its
// established phrasing.
type ladder struct {
	controller[ladderState]

	kind string
	n    int
	qos  FuncQoS
}

// init validates the shared configuration and publishes the initial
// snapshot; a nil qos selects the paper's return-value measure.
func (l *ladder) init(kind string, o ctrlOptions, n int, qos FuncQoS, disabled bool) error {
	if err := l.controller.init(kind, o); err != nil {
		return err
	}
	l.kind, l.n, l.qos = kind, n, qos
	if l.qos == nil {
		l.qos = defaultFuncQoS
	}
	l.state.Store(&ladderState{forceOff: disabled})
	return nil
}

// Offset returns the current recalibration precision offset.
func (l *ladder) Offset() int { return l.state.Load().offset }

// Level reports the precision offset as the controller's approximation
// level (the registry's uniform scalar view; see registry.go).
func (l *ladder) Level() float64 { return float64(l.state.Load().offset) }

// shift applies the snapshot's offset to a model-chosen base version:
// precise stays precise, a shift past the ladder's top is precise, and a
// shift below its bottom stops at the cheapest version.
func (l *ladder) shift(st *ladderState, base int) int {
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

// clampVersion maps a Select-stage level onto the version ladder:
// negative levels are the precise function, and anything past the
// ladder's end is precise too.
func (l *ladder) clampVersion(level float64) int {
	v := int(level)
	if v < 0 || v >= l.n {
		return model.PreciseVersion
	}
	return v
}

// applyAction shifts the precision offset for a recalibration action,
// clamped to ±n, clears the model-driven disable (recalibration pressure
// can re-enable a site the model had given up on), and returns the
// resulting level.
func (l *ladder) applyAction(st *ladderState, a Action) float64 {
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
	return float64(st.offset)
}

// safeQoS runs the extra work a monitored member adds — the selected
// approximate version, then the QoS comparator against the precise
// result yp — under recover. ran reports that the approximate version
// completed (its work was done even if the comparator then panicked);
// ok is false when either panicked.
func (l *ladder) safeQoS(yp float64, approx func() float64) (loss float64, ran, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			loss, ok = 0, false
		}
	}()
	ya := approx()
	ran = true
	return l.qos(yp, ya), true, true
}

// observeMember completes one monitored member whose precise result is
// yp. The precise call has already run bare — a panic there is the
// program's own and propagates as it would without Green — but what the
// monitored path adds runs under recover: a panic is contained, the
// observation discarded, the breaker charged. approx is nil when the
// member selected the precise function (a clean zero-loss observation).
// The measured loss feeds the Observe and Correct stages immediately, so
// whatever runs next sees the post-recalibration snapshot. Reports
// whether the approximate version ran to completion.
func (l *ladder) observeMember(o obs, sd selDecision, yp float64, approx func() float64) (ran bool) {
	loss, ok := 0.0, true
	if approx != nil {
		loss, ran, ok = l.safeQoS(yp, approx)
	}
	l.stageObserveCorrect(o, loss, !ok, sd, l.applyAction)
	return ran
}

// stepAccuracy applies one accuracy action outside the monitored path
// and reports whether the offset moved.
func (l *ladder) stepAccuracy(a Action) (changed bool) {
	l.mutate(func(st *ladderState) {
		before := st.offset
		l.applyAction(st, a)
		changed = st.offset != before
	})
	return changed
}

// IncreaseAccuracy implements Unit.
func (l *ladder) IncreaseAccuracy() bool { return l.stepAccuracy(ActIncrease) }

// DecreaseAccuracy implements Unit.
func (l *ladder) DecreaseAccuracy() bool { return l.stepAccuracy(ActDecrease) }

// DisableApprox implements Unit. The disable is sticky — recalibration
// pressure does not re-enable it; only EnableApprox does.
func (l *ladder) DisableApprox() {
	l.mutate(func(st *ladderState) { st.forceOff = true })
}

// EnableApprox re-enables approximation after DisableApprox.
func (l *ladder) EnableApprox() {
	l.mutate(func(st *ladderState) {
		st.forceOff = false
		st.disabled = false
	})
}

// ApproxEnabled implements Unit.
func (l *ladder) ApproxEnabled() bool { return !l.state.Load().off() }

// snapshot reads the state every ladder persists — Func2State is exactly
// that shared half; FuncState extends it. The lock only fences out
// concurrent recalibration so the snapshot/counter pair is coherent.
func (l *ladder) snapshot() Func2State {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	return Func2State{
		Name:      l.name,
		Offset:    st.offset,
		Interval:  l.SampleInterval(),
		Disabled:  st.disabled,
		ForceOff:  st.forceOff,
		Count:     l.count.Load(),
		Monitored: l.monitored.Load(),
		LossSum:   l.lossSum(),
	}
}

// validate checks the shared half of a snapshot: it must belong to a
// controller with the same name, the offset must be within the version
// ladder, and the counters must be plausible.
func (l *ladder) validate(s Func2State) error {
	if s.Name != l.name {
		return fmt.Errorf("core: state for %q cannot restore %s %q", s.Name, l.kind, l.name)
	}
	if err := validateOffset(l.kind, s.Offset, l.n); err != nil {
		return err
	}
	return validateCounters(l.kind, s.Interval, s.Count, s.Monitored, s.LossSum)
}

// install applies the shared half of a validated snapshot.
func (l *ladder) install(s Func2State) {
	l.restoreCounters(s.Interval, s.Count, s.Monitored, s.LossSum, func(next *ladderState) {
		next.offset = s.Offset
		next.disabled = s.Disabled
		next.forceOff = s.ForceOff
	})
}

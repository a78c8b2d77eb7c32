package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"green/internal/model"
)

// Fn is a scalar function candidate for approximation. The paper's QoS
// modeling scheme is restricted to functions taking numerical input
// (footnote 2); this reproduction adopts the same restriction.
type Fn func(float64) float64

// FuncQoS computes the fractional QoS loss of an approximate function
// result against the precise one. The default (nil) uses the normalized
// return-value difference, matching the paper: "Unless directed
// otherwise, Green uses the function return value as the QoS measure."
type FuncQoS func(precise, approx float64) float64

// defaultFuncQoS is the paper's default return-value QoS measure.
func defaultFuncQoS(precise, approx float64) float64 {
	denom := math.Abs(precise)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(approx-precise) / denom
}

// FuncConfig configures an approximable function (the arguments of the
// paper's approx_func annotation plus the constructed model).
type FuncConfig struct {
	// Name identifies the function in reports.
	Name string
	// Model is the QoS model built in the calibration phase. Its
	// Versions order must correspond to the Approx slice passed to
	// NewFunc (increasing precision).
	Model *model.FuncModel
	// SLA is the maximal tolerated fractional QoS loss; it must lie in
	// (0,1].
	SLA float64
	// SampleInterval is Sample_QoS; zero disables recalibration and
	// negative values are rejected.
	SampleInterval int
	// Policy is the recalibration policy; nil selects DefaultPolicy.
	Policy RecalibratePolicy
	// Key maps the call argument into the model's input domain; nil is
	// the identity. The blackscholes exp model, for example, is built
	// over abs(x) (Figure 7 tests abs(x) ranges).
	Key func(float64) float64
	// QoS overrides the default return-value QoS computation.
	QoS FuncQoS
	// Disabled forces every call to the precise version (overhead
	// experiment and global fallback).
	Disabled bool
	// OnEvent, when non-nil, receives an Event after every monitored
	// call.
	OnEvent EventFunc
	// BreakerThreshold is the number of consecutive contained panics (in
	// the approximate version or the QoS comparator on monitored calls)
	// that trip the circuit breaker to forced-precise operation. Zero
	// means 3; negative disables tripping. See resilience.go.
	BreakerThreshold int
	// BreakerCooldown is the number of calls the breaker stays open
	// before a half-open probe. Zero derives four sampling intervals
	// (minimum 16).
	BreakerCooldown int
}

// Func is an approximable function: the operational-phase object
// synthesized from an approx_func annotation. Call reproduces the
// generated code of Figure 7 and is safe for concurrent use; the
// non-monitored path is lock-free. The recalibration offset, the
// monitored-member observation, and the Unit methods come from the
// embedded version ladder (ladder.go); the counters, sampling decision,
// breaker, policy plumbing, and Stats from the generic controller under
// it. Func itself adds the range-table lookup that picks a base version
// per input, the Fn invocation, and the work accounting.
type Func struct {
	ladder

	cfg FuncConfig

	// rungs[v+1] is version v as a call runs it; rungs[0] is the precise
	// function (model.PreciseVersion is -1). Immutable after NewFunc.
	rungs []rung

	// ranges is the model's version-selection table for cfg.SLA,
	// immutable after NewFunc.
	ranges []model.Range

	// workMilli accumulates model work units in thousandths, so the hot
	// path can use a single atomic add for fractional unit costs.
	workMilli atomic.Int64
}

// rung is one step of the version ladder: the function, and what one
// call of it costs in model work units — also in the thousandths Work
// counts in, converted once so a non-monitored Call adds an integer.
type rung struct {
	fn    Fn
	work  float64
	milli int64
}

func newRung(fn Fn, work float64) rung {
	return rung{fn: fn, work: work, milli: milliWork(work)}
}

// milliWork converts model work units to the thousandths Work counts in.
func milliWork(w float64) int64 { return int64(w*1000 + 0.5) }

// NewFunc builds the controller. precise is the exact implementation;
// approx are the programmer-supplied approximate versions in increasing
// order of precision, and must match cfg.Model's version curves
// one-to-one.
func NewFunc(cfg FuncConfig, precise Fn, approx []Fn) (*Func, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: func requires a model")
	}
	if precise == nil {
		return nil, errors.New("core: func requires a precise implementation")
	}
	if len(approx) != len(cfg.Model.Versions) {
		return nil, fmt.Errorf("core: func %q: %d approximate versions but model has %d curves",
			cfg.Name, len(approx), len(cfg.Model.Versions))
	}
	f := &Func{cfg: cfg, rungs: []rung{newRung(precise, cfg.Model.PreciseWork)}}
	for i, fn := range approx {
		f.rungs = append(f.rungs, newRung(fn, cfg.Model.Versions[i].Work))
	}
	if err := f.init("func", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
		BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
	}, len(approx), cfg.QoS, cfg.Disabled); err != nil {
		return nil, err
	}
	f.ranges = cfg.Model.Ranges(cfg.SLA)
	return f, nil
}

// Ranges returns the currently active selection ranges (before the
// recalibration offset is applied).
func (f *Func) Ranges() []model.Range {
	return append([]model.Range(nil), f.ranges...)
}

// version picks the ladder version for one call at x: precise while the
// breaker forces it (monitoring is suspended then) or approximation is
// off, the Select stage's choice when it made one, otherwise the range
// table's base version under the snapshot's offset.
func (f *Func) version(st *ladderState, forced bool, sd *selDecision, x float64) int {
	if forced || st.off() {
		return model.PreciseVersion
	}
	if sd.selected {
		return f.clampVersion(sd.level)
	}
	k := x
	if f.cfg.Key != nil {
		k = f.cfg.Key(x)
	}
	last := len(f.ranges) - 1
	for i := range f.ranges {
		r := &f.ranges[i]
		if k >= r.Lo && (k < r.Hi || (k == r.Hi && r.Hi == f.ranges[last].Hi)) {
			return f.shift(st, r.Version)
		}
	}
	// Outside the calibrated domain the model knows nothing: precise.
	return model.PreciseVersion
}

// Call evaluates the function at x under the approximation policy; it is
// the synthesized call site of Figure 2:
//
//	if (QoS_Fn_Approx(x, QoS_SLA)) y = FApprox[M](x); else y = F(x);
//	count++; if ((count % Sample_QoS) == 0) QoS_ReCalibrate();
//
// On monitored calls both the precise and the selected approximate
// version run; the measured loss feeds the recalibration policy and the
// precise result is returned.
func (f *Func) Call(x float64) float64 {
	return f.call(x, nil)
}

// CallFeat evaluates the function at x with per-input Features: the
// Select stage maps them through the installed Selector to a version
// of the ladder (the level is the version index; model.PreciseVersion
// selects precise), replacing the range-table lookup for this call.
// When no Selector is installed (or it declines) the call is
// bit-identical to Call.
func (f *Func) CallFeat(x float64, feat Features) float64 {
	return f.call(x, &feat)
}

// call is the shared Select+Execute+Observe+Correct pipeline of one
// function call; a nil feat skips the Select stage.
func (f *Func) call(x float64, feat *Features) float64 {
	st := f.state.Load()
	o := f.stageExecute()
	var sd selDecision
	if feat != nil {
		sd = f.stageSelect(*feat, o, st.off())
	}
	v := f.version(st, o.forced, &sd, x)
	if o.monitor {
		// Precise and approximate work are summed before the conversion,
		// as CallN sums a batch: Work stays the integer it always was.
		y, work := f.monitored(o, &sd, v, x)
		f.addWork(work)
		return y
	}
	r := &f.rungs[v+1]
	y := r.fn(x)
	f.workMilli.Add(r.milli)
	return y
}

// monitored is the one monitored-call body Call and CallN share: the
// precise function runs and its result is returned; if an approximate
// version was selected it runs too and the ladder measures the loss and
// recalibrates (observeMember).
func (f *Func) monitored(o obs, sd *selDecision, v int, x float64) (y, work float64) {
	y, work = f.rungs[0].fn(x), f.rungs[0].work
	var approx func() float64
	if v != model.PreciseVersion {
		approx = func() float64 { return f.rungs[v+1].fn(x) }
	}
	if f.observeMember(o, *sd, y, approx) {
		work += f.rungs[v+1].work
	}
	return y, work
}

// CallN evaluates the function at each xs[i], writing results into
// ys[i]: the batched Call. The approximation snapshot is loaded once,
// one sampling decision covers the batch (monitoring a deterministic
// member — see stageExecuteBatch), and the execution counter and work
// accounting fold into one atomic add each per batch instead of one per
// call. Monitored-member semantics are exactly Call's: precise and
// approximate both run, the loss feeds the policy immediately, and the
// remaining members see the post-recalibration snapshot. ys must be at
// least as long as xs.
func (f *Func) CallN(xs, ys []float64) error {
	return f.callN(xs, ys, nil)
}

// CallNFeat is the batched CallFeat: one Features value describes the
// batch, the Select stage chooses one version for all members, and the
// monitored member's loss corrects the chosen bucket. Bit-identical to
// CallN when no Selector is installed.
func (f *Func) CallNFeat(xs, ys []float64, feat Features) error {
	return f.callN(xs, ys, &feat)
}

func (f *Func) callN(xs, ys []float64, feat *Features) error {
	n := len(xs)
	if len(ys) < n {
		return fmt.Errorf("core: func %q: CallN output slice %d shorter than input %d", f.cfg.Name, len(ys), n)
	}
	if n == 0 {
		return nil
	}
	st := f.state.Load()
	b := f.stageExecuteBatch(n)
	var sd selDecision
	if feat != nil {
		sd = f.stageSelect(*feat, obs{forced: b.forced}, st.off())
	}
	total := 0.0
	for i, x := range xs {
		v := f.version(st, b.forced, &sd, x)
		var work float64
		if i != b.monitorAt {
			r := &f.rungs[v+1]
			ys[i], work = r.fn(x), r.work
		} else {
			o := obs{seq: b.first + int64(i), monitor: true, probe: b.probe}
			ys[i], work = f.monitored(o, &sd, v, x)
			// The observation may have moved the offset: later members
			// read the fresh snapshot, exactly as unbatched Calls would.
			st = f.state.Load()
		}
		total += work
	}
	f.addWork(total)
	return nil
}

func (f *Func) addWork(w float64) {
	f.workMilli.Add(milliWork(w))
}

// Work returns the accumulated model work units across all calls.
// Experiments use this as the simulated cost of the
// function-approximation portion of a run.
func (f *Func) Work() float64 {
	return float64(f.workMilli.Load()) / 1000
}

// WorkReset clears the accumulated work counter.
func (f *Func) WorkReset() { f.workMilli.Store(0) }

// Sensitivity implements Unit: the mean modeled loss improvement per unit
// of relative work increase when shifting every selected version one step
// more precise.
func (f *Func) Sensitivity() float64 {
	st := f.state.Load()
	m := f.cfg.Model
	var dLoss, dWork float64
	for _, r := range f.ranges {
		cur := f.shift(st, r.Version)
		if cur == model.PreciseVersion {
			continue // already precise here
		}
		mid := (r.Lo + r.Hi) / 2
		lossUp, workUp := 0.0, m.PreciseWork
		if cur+1 < len(m.Versions) {
			lossUp, workUp = m.Versions[cur+1].LossAt(mid), m.Versions[cur+1].Work
		}
		dLoss += m.Versions[cur].LossAt(mid) - lossUp
		dWork += (workUp - m.Versions[cur].Work) / m.PreciseWork
	}
	if dWork <= 0 {
		return 0 // nothing can step up, or stepping up is free
	}
	return dLoss / dWork
}

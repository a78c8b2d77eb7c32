package core

import (
	"errors"
	"fmt"
	"math"

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
	// Policy is the recalibration policy; nil selects a WindowedPolicy
	// whose window is sized once from the model and the SLA, and which
	// collects it at SampleInterval.
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
}

// Func is an approximable function: the operational-phase object
// synthesized from an approx_func annotation. Call reproduces the
// generated code of Figure 7 and is safe for concurrent use; the
// non-monitored path is lock-free. Everything but the configuration,
// Ranges and the model walk behind Sensitivity is the embedded version
// ladder (ladder.go) over one argument, whose base version per input is
// the model's range table for the SLA.
type Func struct {
	ladder[float64]

	cfg FuncConfig
}

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
	rungs := []rung[float64]{newRung[float64](precise, cfg.Model.PreciseWork)}
	for i, fn := range approx {
		rungs = append(rungs, newRung[float64](fn, cfg.Model.Versions[i].Work))
	}
	f := &Func{cfg: cfg}
	if err := f.init("func", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
	}, rungs, cfg.QoS, cfg.Disabled); err != nil {
		return nil, err
	}
	f.ranges, f.key = cfg.Model.Ranges(cfg.SLA), cfg.Key
	f.sizeWindow(f.window)
	return f, nil
}

// window sizes a nil Policy's window (sizeWindow) from the version
// curves: a level's losses are the calibration samples, inside each range
// of the table, of the version the offset (−1 below, 0 settled) shifts
// the range's choice to; a range shifted to precise is not approximated.
func (f *Func) window() int {
	var at [2]lossMoments
	last := len(f.ranges) - 1
	for i, r := range f.ranges {
		for k := range at {
			v := f.shift(&ladderState{offset: k - 1}, r.Version)
			if v == model.PreciseVersion {
				continue
			}
			for _, s := range f.cfg.Model.Versions[v].Samples {
				if s.X >= r.Lo && (s.X < r.Hi || s.X == r.Hi && i == last) {
					at[k].add(s.Loss)
				}
			}
		}
	}
	return sizeWindow(f.sla, at[0].spread(), at[1].spread())
}

// Ranges returns the currently active selection ranges (before the
// recalibration offset is applied).
func (f *Func) Ranges() []model.Range {
	return append([]model.Range(nil), f.ranges...)
}

// Call evaluates the function at x under the approximation policy: the
// synthesized call site of Figure 2 (ladder.call). On monitored calls
// both the precise and the selected approximate version run; the
// measured loss feeds the recalibration policy and the precise result is
// returned.
func (f *Func) Call(x float64) float64 { return f.call(x) }

// CallN evaluates the function at each xs[i], writing results into
// ys[i]: the batched Call (ladder.callN), with one snapshot load, one
// sampling decision, and one counter and work add per batch. ys must be
// at least as long as xs.
func (f *Func) CallN(xs, ys []float64) error { return f.callN(xs, nil, ys) }

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

package core

import (
	"errors"
	"fmt"

	"green/internal/model"
)

// This file implements an extension the paper identifies but leaves to
// future work: Func2 approximates functions of *two* numeric parameters
// (footnote 1: "this can be extended to multiple parameters") using the
// 2-D grid model from internal/model.

// Fn2 is a two-parameter function candidate for approximation.
type Fn2 func(x, y float64) float64

// Func2Config configures a two-parameter approximable function.
type Func2Config struct {
	// Name identifies the function in reports.
	Name string
	// Model is the 2-D grid QoS model from the calibration phase.
	Model *model.FuncModel2D
	// SLA is the maximal tolerated fractional QoS loss; it must lie in
	// (0,1].
	SLA float64
	// SampleInterval is Sample_QoS; zero disables recalibration and
	// negative values are rejected.
	SampleInterval int
	// Policy is the recalibration policy; nil selects DefaultPolicy.
	Policy RecalibratePolicy
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

// Func2 is the two-parameter function controller. It is Func over a grid
// model: per-call cheapest-version selection under the SLA, monitored
// sampling with panic containment and a circuit breaker, and
// offset-based recalibration, all from the embedded version ladder
// (ladder.go) and the generic controller under it; the non-monitored
// path is lock-free. Func2 itself adds the grid-cell lookup that picks a
// base version per input and the Fn2 invocation.
type Func2 struct {
	ladder

	cfg Func2Config

	// fns[v+1] is version v; fns[0] is the precise function
	// (model.PreciseVersion is -1). Immutable after NewFunc2.
	fns []Fn2
}

// NewFunc2 builds the controller; approx must match the model's versions
// one-to-one in increasing precision order.
func NewFunc2(cfg Func2Config, precise Fn2, approx []Fn2) (*Func2, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: func2 requires a model")
	}
	if precise == nil {
		return nil, errors.New("core: func2 requires a precise implementation")
	}
	if len(approx) != len(cfg.Model.Versions) {
		return nil, fmt.Errorf("core: func2 %q: %d versions but model has %d",
			cfg.Name, len(approx), len(cfg.Model.Versions))
	}
	f := &Func2{cfg: cfg, fns: append([]Fn2{precise}, approx...)}
	if err := f.init("func2", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
		BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
	}, len(approx), cfg.QoS, cfg.Disabled); err != nil {
		return nil, err
	}
	return f, nil
}

// version picks the ladder version for one call: precise while the
// breaker forces it (monitoring is suspended then) or approximation is
// off, otherwise the grid cell's base version under the snapshot's
// offset.
func (f *Func2) version(st *ladderState, forced bool, x, y float64) int {
	if forced || st.off() {
		return model.PreciseVersion
	}
	return f.shift(st, f.cfg.Model.SelectVersion(x, y, f.cfg.SLA))
}

// monitored is the one monitored-call body Call and CallN share: the
// precise function runs and its result is returned; if an approximate
// version was selected it runs too and the ladder measures the loss and
// recalibrates (observeMember).
func (f *Func2) monitored(o obs, v int, x, y float64) float64 {
	zp := f.fns[0](x, y)
	var approx func() float64
	if v != model.PreciseVersion {
		approx = func() float64 { return f.fns[v+1](x, y) }
	}
	f.observeMember(o, selDecision{}, zp, approx)
	return zp
}

// Call evaluates the function under the approximation policy. On
// monitored calls both the precise and the selected approximate version
// run; the measured loss feeds the recalibration policy and the precise
// result is returned. As with Func, the extra work the monitored path
// adds (the approximate version and the QoS comparator) runs under
// recover; a contained panic discards the observation and charges the
// breaker.
func (f *Func2) Call(x, y float64) float64 {
	st := f.state.Load()
	o := f.stageExecute()
	v := f.version(st, o.forced, x, y)
	if o.monitor {
		return f.monitored(o, v, x, y)
	}
	return f.fns[v+1](x, y)
}

// CallN evaluates the function at each (xs[i], ys[i]) pair, writing
// results into zs[i]: the batched Call. One snapshot load, one sampling
// decision, and one counter add cover the whole batch; the monitored
// member (if any) behaves exactly like an unbatched monitored Call and
// later members see the post-recalibration snapshot. zs must be at
// least as long as xs and ys (whose lengths must match).
func (f *Func2) CallN(xs, ys, zs []float64) error {
	n := len(xs)
	if len(ys) != n {
		return fmt.Errorf("core: func2 %q: CallN input lengths differ (%d vs %d)", f.cfg.Name, n, len(ys))
	}
	if len(zs) < n {
		return fmt.Errorf("core: func2 %q: CallN output slice %d shorter than input %d", f.cfg.Name, len(zs), n)
	}
	if n == 0 {
		return nil
	}
	st := f.state.Load()
	b := f.stageExecuteBatch(n)
	for i, x := range xs {
		v := f.version(st, b.forced, x, ys[i])
		if i != b.monitorAt {
			zs[i] = f.fns[v+1](x, ys[i])
			continue
		}
		zs[i] = f.monitored(obs{seq: b.first + int64(i), monitor: true, probe: b.probe}, v, x, ys[i])
		st = f.state.Load()
	}
	return nil
}

// Sensitivity implements Unit: the mean modeled loss improvement per
// unit of relative work increase when shifting each covered grid cell's
// selected version one step more precise.
func (f *Func2) Sensitivity() float64 {
	st := f.state.Load()
	m := f.cfg.Model
	var dLoss, dWork float64
	for idx := 0; idx < m.Grid.NX*m.Grid.NY; idx++ {
		// Cheapest version meeting the SLA in this cell (SelectVersion's
		// rule), then the recalibration offset, as version applies it.
		base := model.PreciseVersion
		bestWork := m.PreciseWork
		for vi := range m.Versions {
			v := &m.Versions[vi]
			if v.Loss[idx] <= f.cfg.SLA && v.Work < bestWork {
				base = vi
				bestWork = v.Work
			}
		}
		cur := f.shift(st, base)
		if cur == model.PreciseVersion {
			continue // already precise here
		}
		lossCur := m.Versions[cur].Loss[idx]
		if !finite(lossCur) {
			continue // uncalibrated cell
		}
		lossUp, workUp := 0.0, m.PreciseWork
		if cur+1 < len(m.Versions) {
			workUp = m.Versions[cur+1].Work
			if up := m.Versions[cur+1].Loss[idx]; finite(up) {
				lossUp = up
			}
		}
		dLoss += lossCur - lossUp
		dWork += (workUp - m.Versions[cur].Work) / m.PreciseWork
	}
	if dWork <= 0 {
		return 0 // nothing can step up, or stepping up is free
	}
	return dLoss / dWork
}

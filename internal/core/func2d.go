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
	// Policy is the recalibration policy; nil selects a WindowedPolicy
	// whose window is sized once from the model and the SLA, and which
	// collects it at SampleInterval.
	Policy RecalibratePolicy
	// QoS overrides the default return-value QoS computation.
	QoS FuncQoS
	// Disabled forces every call to the precise version (overhead
	// experiment and global fallback).
	Disabled bool
	// OnEvent, when non-nil, receives an Event after every monitored
	// call.
	OnEvent EventFunc
}

// Func2 is the two-parameter function controller: Func over a grid
// model. Everything but the configuration and the grid walk behind
// Sensitivity is the embedded version ladder (ladder.go) over (x, y)
// pairs, whose base version per input is the grid cell's cheapest
// version meeting the SLA; the non-monitored path is lock-free.
type Func2 struct {
	ladder[pair]

	cfg Func2Config
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
	onPair := func(fn Fn2) func(pair) float64 { return func(p pair) float64 { return fn(p.x, p.y) } }
	rungs := []rung[pair]{newRung(onPair(precise), cfg.Model.PreciseWork)}
	for i, fn := range approx {
		rungs = append(rungs, newRung(onPair(fn), cfg.Model.Versions[i].Work))
	}
	f := &Func2{cfg: cfg}
	if err := f.init("func2", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
	}, rungs, cfg.QoS, cfg.Disabled); err != nil {
		return nil, err
	}
	f.grid, f.cells = cfg.Model.Grid, cellVersions(cfg.Model, cfg.SLA)
	f.sizeWindow(f.window)
	return f, nil
}

// cellVersions is the base version of every grid cell, built once as
// Func's range table is: the cheapest version meeting sla there
// (SelectVersion's rule), or precise.
func cellVersions(m *model.FuncModel2D, sla float64) []int {
	cells := make([]int, m.Grid.NX*m.Grid.NY)
	for idx := range cells {
		base, bestWork := model.PreciseVersion, m.PreciseWork
		for vi := range m.Versions {
			v := &m.Versions[vi]
			if v.Loss[idx] <= sla && v.Work < bestWork {
				base, bestWork = vi, v.Work
			}
		}
		cells[idx] = base
	}
	return cells
}

// window sizes a nil Policy's window (sizeWindow) from the grid: a
// level's losses are the calibrated cells' losses of the version the
// offset (−1 below, 0 settled) shifts each cell's choice to; a cell
// shifted to precise is not approximated.
func (f *Func2) window() int {
	m := f.cfg.Model
	var at [2]lossMoments
	for idx, base := range f.cells {
		for k := range at {
			v := f.shift(&ladderState{offset: k - 1}, base)
			if v != model.PreciseVersion && finite(m.Versions[v].Loss[idx]) {
				at[k].add(m.Versions[v].Loss[idx])
			}
		}
	}
	return sizeWindow(f.sla, at[0].spread(), at[1].spread())
}

// Call evaluates the function at (x, y) under the approximation policy:
// Func.Call over the grid (ladder.call).
func (f *Func2) Call(x, y float64) float64 { return f.call(pair{x, y}) }

// CallN evaluates the function at each (xs[i], ys[i]) pair, writing
// results into zs[i]: Func.CallN over the grid (ladder.callN). xs and ys
// must have the same length and zs must be at least as long.
func (f *Func2) CallN(xs, ys, zs []float64) error {
	if len(ys) != len(xs) {
		return fmt.Errorf("core: func2 %q: CallN input lengths differ (%d vs %d)", f.cfg.Name, len(xs), len(ys))
	}
	return f.callN(xs, ys, zs)
}

// Sensitivity implements Unit: the mean modeled loss improvement per
// unit of relative work increase when shifting each covered grid cell's
// selected version one step more precise.
func (f *Func2) Sensitivity() float64 {
	st := f.state.Load()
	m := f.cfg.Model
	var dLoss, dWork float64
	for idx, base := range f.cells {
		// The cell's base version, then the recalibration offset, as
		// version applies it.
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

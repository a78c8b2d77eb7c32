// Package taintsink is a greenlint fixture: approximate values flowing
// into precise-only sinks. Sources are Func.Call/Func2.Call results,
// CallN outputs, and state mutated under exec.Continue-guarded loops;
// sinks are calibration inputs, SLA parameters, steering decisions, and
// error construction. Findings anchor at the sink, so an endorsement on
// the sink line covers every path into it.
package taintsink

import (
	"fmt"

	"green/internal/core"
)

// accumToError: the canonical direct flow — a sum accumulated under the
// controller's approximate loop is reported through an error, where it
// reads as ground truth.
func accumToError(l *core.Loop, q core.LoopQoS, xs []float64) error {
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	sum := 0.0
	i := 0
	for ; i < len(xs) && exec.Continue(i); i++ {
		sum += xs[i]
	}
	exec.Finish(i)
	if sum < 0 {
		return fmt.Errorf("negative checksum %v", sum) // want "error construction"
	}
	return nil
}

// blockAccumToError is accumToError driven in exec.ContinueN blocks: the
// guard sits in the loop's init and post, and what the loop accumulates
// is just as approximate.
func blockAccumToError(l *core.Loop, q core.LoopQoS, xs []float64, block func([]float64) float64) error {
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	sum := 0.0
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		n := min(k, len(xs)-i)
		sum += block(xs[i : i+n])
		i += n
		if n < k {
			break
		}
	}
	exec.Finish(i)
	if sum < 0 {
		return fmt.Errorf("negative checksum %v", sum) // want "error construction"
	}
	return nil
}

// callToSetLevel feeds an approximate function result straight into the
// controller's accuracy knob — the precise SLA plane steered by the
// value it is supposed to control.
func callToSetLevel(l *core.Loop, f *core.Func, x float64) {
	y := f.Call(x)
	l.SetLevel(y) // want "SLA/adaptive parameters"
}

// callToCalibration poisons the calibration store with an approximate
// sample: the model would learn its own error as truth.
func callToCalibration(c *core.FuncCalibration, f *core.Func, x float64) error {
	y := f.Call(x)
	return c.AddSample(0, x, y) // want "calibration input"
}

// callNToError: the output-slice form of the Func source.
func callNToError(f *core.Func, xs []float64) error {
	ys := make([]float64, len(xs))
	if err := f.CallN(xs, ys); err != nil {
		return err
	}
	return fmt.Errorf("first output %v", ys[0]) // want "error construction"
}

// steer makes a breaker decision under a condition derived from an
// approximate value: control dependence, not data flow.
func steer(l *core.Loop, f *core.Func, x float64) {
	y := f.Call(x)
	if y > 0.5 {
		l.DisableApprox() // want "breaker/steering decision"
	}
}

// record funnels measured losses into the calibration store. Its
// parameter reaches the AddRun sink, so tainted callers are reported
// here — at the real sink — with the full interprocedural path.
func record(c *core.LoopCalibration, losses []float64) error {
	return c.AddRun(losses, nil) // want "calibration input"
}

// twoHopAccum is the two-hop interprocedural case: losses gathered
// under the approximate loop travel through record into AddRun.
func twoHopAccum(l *core.Loop, q core.LoopQoS, c *core.LoopCalibration, xs []float64) error {
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	losses := make([]float64, 0, len(xs))
	i := 0
	for ; i < len(xs) && exec.Continue(i); i++ {
		losses = append(losses, xs[i])
	}
	exec.Finish(i)
	return record(c, losses)
}

// approxMean returns an approximate aggregate; callers inherit the
// source through the function summary.
func approxMean(f *core.Func, xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += f.Call(x)
	}
	return t / float64(len(xs))
}

// returnedToError: the summary-carried source surfaces at the caller's
// sink, two frames from the Func.Call that minted it.
func returnedToError(f *core.Func, xs []float64) error {
	m := approxMean(f, xs)
	if m > 1 {
		return fmt.Errorf("mean out of range: %v", m) // want "error construction"
	}
	return nil
}

// callToFeatSample is callToCalibration through the feature-tagged entry
// point, which feeds the same store and a selector bucket besides.
func callToFeatSample(c *core.FuncCalibration, f *core.Func, x float64) error {
	y := f.Call(x)
	return c.AddSampleFeat(core.Features{Key: x, Valid: true}, 0, x, y) // want "calibration input"
}

// callNToFeatRun records approximate outputs as a feature-tagged run's
// losses.
func callNToFeatRun(c *core.LoopCalibration, f *core.Func, xs []float64) error {
	ys := make([]float64, len(xs))
	if err := f.CallN(xs, ys); err != nil {
		return err
	}
	return c.AddRunFeat(core.Features{}, ys, xs) // want "calibration input"
}

// endorsed is the sanctioned crossing: the directive carries a reason,
// so the finding is suppressed (and taintendorse would accept it).
func endorsed(f *core.Func, x float64) error {
	y := f.Call(x)
	//greenlint:endorse the approximate output is deliberately surfaced to the operator
	return fmt.Errorf("approx output %v", y)
}

// cleanOrder shows the flow-sensitivity: a precise sample recorded
// before any approximate execution is not a finding.
func cleanOrder(c *core.FuncCalibration, f *core.Func, x float64) error {
	if err := c.AddSample(0, x, x); err != nil {
		return err
	}
	_ = f.Call(x)
	return nil
}

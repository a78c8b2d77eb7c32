// Package greened is a suggestion-mode negative fixture: its loop is
// already under a Green controller (exec.Continue guards the
// condition), so site discovery must stay silent — the site is found,
// calibration owns it now.
package greened

import "green/internal/core"

// sum is an already-approximated reduction: structurally identical to
// the suggestreduce shape, but the Continue guard marks it greened.
func sum(l *core.Loop, q core.LoopQoS, xs []float64) float64 {
	exec, err := l.Begin(q)
	if err != nil {
		return 0
	}
	total := 0.0
	i := 0
	for ; i < len(xs) && exec.Continue(i); i++ {
		total += xs[i] * xs[i]
	}
	exec.Finish(i)
	return total
}

// sumBlocks is the same reduction driven in exec.ContinueN blocks: the
// guard sits in the loop's init and post, and marks it greened as well.
func sumBlocks(l *core.Loop, q core.LoopQoS, xs []float64, block func([]float64) float64) float64 {
	exec, err := l.Begin(q)
	if err != nil {
		return 0
	}
	total := 0.0
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		n := min(k, len(xs)-i)
		total += block(xs[i : i+n])
		i += n
		if n < k {
			break
		}
	}
	exec.Finish(i)
	return total
}

package model

// Reading a calibrated loss curve between its knots, and correcting it
// from an observation. KnotLoss is the cluster control plane's: a shard's
// monitored level can fall anywhere on the grid. CorrectionRatio is
// shared: core's BucketSelector, which only ever reads a bucket at one of
// its candidate levels, and the control plane's per-shard correction
// both call it, so a bucket and a shard model are clamped identically.

// CorrLo and CorrHi bound every observed/predicted loss correction, so
// one noisy monitoring window cannot swing a whole curve by orders of
// magnitude.
const CorrLo, CorrHi = 0.25, 4.0

// corrPredFloor is the predicted-loss magnitude at or below which the
// observed/predicted ratio is meaningless.
const corrPredFloor = 1e-9

// KnotLoss interpolates a calibrated loss curve (losses[i] at levels[i],
// levels ascending) at an arbitrary level: the first knot's loss below
// the grid, linear between knots, linear toward zero at the base
// (precise) level beyond the last knot, and zero at or above base. A
// zero-width span reads its upper knot; an empty curve predicts zero.
func KnotLoss(levels, losses []float64, base, at float64) float64 {
	if len(levels) == 0 || at >= base {
		return 0
	}
	if at <= levels[0] {
		return losses[0]
	}
	last := len(levels) - 1
	for j := 1; j <= last; j++ {
		if at <= levels[j] {
			span := levels[j] - levels[j-1]
			if span <= 0 {
				return losses[j]
			}
			t := (at - levels[j-1]) / span
			return losses[j-1] + t*(losses[j]-losses[j-1])
		}
	}
	span := base - levels[last]
	if span <= 0 {
		return losses[last]
	}
	t := (at - levels[last]) / span
	return losses[last] * (1 - t)
}

// CorrectionRatio returns observed/predicted clamped to [CorrLo, CorrHi].
// ok is false, and the ratio 1 (no correction), when the prediction is
// too small for a ratio to mean anything; what to do then is the
// caller's policy (the control plane leaves the shard model uncorrected,
// a selector bucket treats real observed loss there as a maximal
// underestimate).
func CorrectionRatio(observed, predicted float64) (ratio float64, ok bool) {
	if predicted <= corrPredFloor {
		return 1, false
	}
	ratio = observed / predicted
	if ratio < CorrLo {
		ratio = CorrLo
	} else if ratio > CorrHi {
		ratio = CorrHi
	}
	return ratio, true
}

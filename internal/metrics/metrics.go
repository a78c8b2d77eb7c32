// Package metrics implements the QoS (quality of service/solution) loss
// metrics used by the Green evaluation:
//
//   - normalized scalar and vector differences (blackscholes, DFT, CGA),
//   - mean normalized pixel difference for rendered images (252.eon),
//   - top-N document set/order comparison (Bing Search).
//
// All metrics follow the paper's convention: the result is a *loss*
// in [0, +inf), where 0 means the approximate output is identical to the
// precise output. Losses are fractional (0.01 == 1%); callers that report
// percentages multiply by 100 at the edge.
package metrics

import (
	"errors"
	"math"
)

// ErrLengthMismatch is returned when two outputs being compared have
// different shapes.
var ErrLengthMismatch = errors.New("metrics: length mismatch")

// NormDiff returns |approx-precise| / max(|precise|, eps): the normalized
// difference of two scalars. eps guards the division when the precise value
// is (near) zero; a typical eps is 1e-12.
func NormDiff(precise, approx, eps float64) float64 {
	denom := math.Abs(precise)
	if denom < eps {
		denom = eps
	}
	return math.Abs(approx-precise) / denom
}

// MeanNormDiff returns the mean of per-element normalized differences of
// two vectors. This is the DFT QoS metric from the paper ("normalized
// difference in each output sample").
func MeanNormDiff(precise, approx []float64, eps float64) (float64, error) {
	if len(precise) != len(approx) {
		return 0, ErrLengthMismatch
	}
	if len(precise) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range precise {
		sum += NormDiff(precise[i], approx[i], eps)
	}
	return sum / float64(len(precise)), nil
}

// RMSNormDiff returns the root-mean-square of the element-wise differences,
// normalized by the RMS magnitude of the precise vector. It is a smoother
// alternative to MeanNormDiff for signals that cross zero.
func RMSNormDiff(precise, approx []float64) (float64, error) {
	if len(precise) != len(approx) {
		return 0, ErrLengthMismatch
	}
	if len(precise) == 0 {
		return 0, nil
	}
	var num, den float64
	for i := range precise {
		d := approx[i] - precise[i]
		num += d * d
		den += precise[i] * precise[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}

// PixelDiff returns the average normalized difference of pixel values
// between a precise and an approximate rendering — the 252.eon QoS metric.
// Pixels are linear RGB triples flattened into one slice; values are
// normalized by the channel range [0, 1], so a completely black vs white
// frame has loss 1.
func PixelDiff(precise, approx []float64) (float64, error) {
	if len(precise) != len(approx) {
		return 0, ErrLengthMismatch
	}
	if len(precise) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range precise {
		d := approx[i] - precise[i]
		if d < 0 {
			d = -d
		}
		if d > 1 {
			d = 1
		}
		sum += d
	}
	return sum / float64(len(precise)), nil
}

// TopNExactMatch reports whether two ranked result lists contain the same
// ids in the same order. This is the strict Bing Search QoS from §3.3: any
// difference in the document set *or* the rank order counts as loss.
func TopNExactMatch(precise, approx []int) bool {
	if len(precise) != len(approx) {
		return false
	}
	for i := range precise {
		if precise[i] != approx[i] {
			return false
		}
	}
	return true
}

// QueryLoss returns the per-query QoS loss for search: 1 if the top-N
// results differ (set or order), else 0. Aggregating the mean of QueryLoss
// over a query stream yields the paper's "% of queries that returned a
// different result" metric.
func QueryLoss(precise, approx []int) float64 {
	if TopNExactMatch(precise, approx) {
		return 0
	}
	return 1
}

// RelativeRegret returns max(0, (approx-precise)/precise) — the QoS metric
// for minimization problems such as CGA's schedule makespan, where only a
// *worse* (larger) result counts as loss. precise must be positive.
func RelativeRegret(precise, approx float64) float64 {
	if precise <= 0 {
		return 0
	}
	r := (approx - precise) / precise
	if r < 0 {
		return 0
	}
	return r
}

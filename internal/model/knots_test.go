package model

import (
	"math"
	"testing"
)

// TestKnotLoss: the knot interpolator behind the control plane's
// per-shard correction.
func TestKnotLoss(t *testing.T) {
	levels := []float64{100, 1000}
	losses := []float64{0.03, 0.005}
	const base = 20000
	cases := []struct {
		name           string
		levels, losses []float64
		base, at, want float64
	}{
		{"below the first knot clamps", levels, losses, base, 50, 0.03},
		{"on the first knot", levels, losses, base, 100, 0.03},
		{"on the last knot", levels, losses, base, 1000, 0.005},
		{"between knots", levels, losses, base, 550, 0.0175},
		{"zero-width span reads its upper knot", []float64{100, 500, 500, 1000}, []float64{0.03, 0.02, 0.01, 0.005}, base, 500, 0.02},
		{"just past a zero-width span", []float64{100, 500, 500, 1000}, []float64{0.03, 0.02, 0.01, 0.005}, base, 750, 0.0075},
		{"beyond the last knot, toward zero at base", levels, losses, base, 10500, 0.0025},
		{"last knot sits on base", levels, losses, 1000, 999, 0.03 + (999.0-100)/900*(0.005-0.03)},
		{"at base: precise", levels, losses, base, base, 0},
		{"above base", levels, losses, base, 30000, 0},
		{"empty curve", nil, nil, base, 500, 0},
	}
	for _, c := range cases {
		if got := KnotLoss(c.levels, c.losses, c.base, c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: KnotLoss(%g) = %g, want %g", c.name, c.at, got, c.want)
		}
	}
}

func TestCorrectionRatio(t *testing.T) {
	cases := []struct {
		observed, predicted, ratio float64
		ok                         bool
	}{
		{0.02, 0.01, 2, true},
		{0.0001, 0.01, CorrLo, true}, // far below the prediction: lower clamp
		{1, 0.01, CorrHi, true},      // far above: upper clamp
		{0, 0.01, CorrLo, true},
		{0.05, 0, 1, false}, // nothing predicted: no ratio, no correction
		{0.05, 1e-9, 1, false},
		{0, 0, 1, false},
	}
	for _, c := range cases {
		ratio, ok := CorrectionRatio(c.observed, c.predicted)
		if ratio != c.ratio || ok != c.ok {
			t.Errorf("CorrectionRatio(%g, %g) = (%g, %v), want (%g, %v)", c.observed, c.predicted, ratio, ok, c.ratio, c.ok)
		}
	}
}

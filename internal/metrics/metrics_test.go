package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormDiff(t *testing.T) {
	cases := []struct {
		precise, approx, eps, want float64
	}{
		{10, 11, 1e-12, 0.1},
		{10, 10, 1e-12, 0},
		{-10, -9, 1e-12, 0.1},
		{0, 0.5, 1e-3, 500}, // denom clamped to eps
	}
	for _, c := range cases {
		got := NormDiff(c.precise, c.approx, c.eps)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormDiff(%v,%v,%v) = %v, want %v", c.precise, c.approx, c.eps, got, c.want)
		}
	}
}

func TestMeanNormDiff(t *testing.T) {
	got, err := MeanNormDiff([]float64{1, 2}, []float64{1.1, 2}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.05) > 1e-9 {
		t.Errorf("MeanNormDiff = %v, want 0.05", got)
	}
	if _, err := MeanNormDiff([]float64{1}, []float64{1, 2}, 1e-12); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if got, err := MeanNormDiff(nil, nil, 1e-12); err != nil || got != 0 {
		t.Errorf("empty MeanNormDiff = (%v, %v), want (0, nil)", got, err)
	}
}

func TestRMSNormDiff(t *testing.T) {
	got, err := RMSNormDiff([]float64{3, 4}, []float64{3, 4})
	if err != nil || got != 0 {
		t.Errorf("identical = (%v, %v), want (0, nil)", got, err)
	}
	// precise=(3,4) |precise|=5; approx differs by (0,5): RMS ratio = 1.
	got, err = RMSNormDiff([]float64{3, 4}, []float64{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("RMSNormDiff = %v, want 1", got)
	}
	// zero precise, nonzero approx -> +Inf
	got, err = RMSNormDiff([]float64{0}, []float64{1})
	if err != nil || !math.IsInf(got, 1) {
		t.Errorf("zero-denominator = (%v, %v), want (+Inf, nil)", got, err)
	}
	// zero precise, zero approx -> 0
	got, err = RMSNormDiff([]float64{0}, []float64{0})
	if err != nil || got != 0 {
		t.Errorf("all-zero = (%v, %v), want (0, nil)", got, err)
	}
	if _, err := RMSNormDiff([]float64{1}, nil); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestPixelDiff(t *testing.T) {
	got, err := PixelDiff([]float64{0, 0.5, 1}, []float64{0, 0.5, 1})
	if err != nil || got != 0 {
		t.Errorf("identical frames = (%v, %v)", got, err)
	}
	got, err = PixelDiff([]float64{0, 0}, []float64{1, 1})
	if err != nil || got != 1 {
		t.Errorf("black vs white = (%v, %v), want (1, nil)", got, err)
	}
	// Differences above 1 are clamped per pixel.
	got, err = PixelDiff([]float64{0}, []float64{5})
	if err != nil || got != 1 {
		t.Errorf("clamped diff = (%v, %v), want (1, nil)", got, err)
	}
	if _, err := PixelDiff([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestTopNExactMatch(t *testing.T) {
	if !TopNExactMatch([]int{1, 2, 3}, []int{1, 2, 3}) {
		t.Error("identical lists should match")
	}
	if TopNExactMatch([]int{1, 2, 3}, []int{1, 3, 2}) {
		t.Error("reordered lists must not exact-match")
	}
	if TopNExactMatch([]int{1, 2}, []int{1, 2, 3}) {
		t.Error("different lengths must not match")
	}
}

func TestQueryLoss(t *testing.T) {
	if got := QueryLoss([]int{4, 5}, []int{4, 5}); got != 0 {
		t.Errorf("identical top-N loss = %v, want 0", got)
	}
	if got := QueryLoss([]int{4, 5}, []int{5, 4}); got != 1 {
		t.Errorf("reordered top-N loss = %v, want 1", got)
	}
}

func TestRelativeRegret(t *testing.T) {
	if got := RelativeRegret(100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("regret = %v, want 0.1", got)
	}
	if got := RelativeRegret(100, 90); got != 0 {
		t.Errorf("improvement regret = %v, want 0", got)
	}
	if got := RelativeRegret(0, 5); got != 0 {
		t.Errorf("non-positive precise regret = %v, want 0", got)
	}
}

// Property: NormDiff is symmetric under negation of both arguments.
func TestNormDiffNegationProperty(t *testing.T) {
	f := func(p, a float64) bool {
		if math.IsNaN(p) || math.IsNaN(a) || math.IsInf(p, 0) || math.IsInf(a, 0) {
			return true
		}
		d1 := NormDiff(p, a, 1e-9)
		d2 := NormDiff(-p, -a, 1e-9)
		if math.IsInf(d1, 0) || math.IsInf(d2, 0) {
			return true
		}
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical vectors always have zero loss for every vector
// metric.
func TestZeroLossOnIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		if d, err := MeanNormDiff(xs, xs, 1e-12); err != nil || d != 0 {
			t.Fatalf("MeanNormDiff identical = (%v, %v)", d, err)
		}
		if d, err := RMSNormDiff(xs, xs); err != nil || d != 0 {
			t.Fatalf("RMSNormDiff identical = (%v, %v)", d, err)
		}
	}
}

// Property: PixelDiff result is within [0,1].
func TestPixelDiffRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(64)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64() * 2
			b[i] = rng.Float64() * 2
		}
		d, err := PixelDiff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > 1 {
			t.Fatalf("PixelDiff out of range: %v", d)
		}
	}
}

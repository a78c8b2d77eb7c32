package dft

import (
	"errors"
	"math"
	"testing"

	"green/internal/approxmath"
	"green/internal/metrics"
	"green/internal/workload"
)

func TestTransformValidation(t *testing.T) {
	if _, _, err := Transform([]float64{1}, Trig{}); err == nil {
		t.Error("nil kernel accepted")
	}
}

func TestTransformEmptySignal(t *testing.T) {
	re, im, err := Transform(nil, PreciseTrig())
	if err != nil || len(re) != 0 || len(im) != 0 {
		t.Errorf("empty transform = (%v, %v, %v)", re, im, err)
	}
}

func TestTransformDCComponent(t *testing.T) {
	// A constant signal has all energy in bin 0.
	sig := []float64{2, 2, 2, 2}
	re, im, err := Transform(sig, PreciseTrig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re[0]-8) > 1e-9 || math.Abs(im[0]) > 1e-9 {
		t.Errorf("DC bin = (%v, %v), want (8, 0)", re[0], im[0])
	}
	for k := 1; k < 4; k++ {
		if math.Abs(re[k]) > 1e-9 || math.Abs(im[k]) > 1e-9 {
			t.Errorf("bin %d = (%v, %v), want 0", k, re[k], im[k])
		}
	}
}

func TestTransformPureTone(t *testing.T) {
	// cos(2π·3t/N) puts energy in bins 3 and N-3.
	const n = 16
	sig := make([]float64, n)
	for t := range sig {
		sig[t] = math.Cos(2 * math.Pi * 3 * float64(t) / n)
	}
	re, im, err := Transform(sig, PreciseTrig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range re {
		m, want := math.Hypot(re[k], im[k]), 0.0
		if k == 3 || k == n-3 {
			want = n / 2
		}
		if math.Abs(m-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", k, m, want)
		}
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	sig := workload.Signal(5, 64)
	re, im, err := Transform(sig, PreciseTrig())
	if err != nil {
		t.Fatal(err)
	}
	var timeE, freqE float64
	for _, x := range sig {
		timeE += x * x
	}
	for k := range re {
		freqE += re[k]*re[k] + im[k]*im[k]
	}
	freqE /= float64(len(sig))
	if math.Abs(timeE-freqE) > 1e-6*timeE {
		t.Errorf("Parseval violated: %v vs %v", timeE, freqE)
	}
}

// InverseCheck reconstructs the signal from a spectrum with the precise
// kernel and returns the maximum absolute reconstruction error against
// the original: the oracle TestInverseCheckRoundTrip holds Transform to.
func InverseCheck(signal, re, im []float64) (float64, error) {
	n := len(signal)
	if len(re) != n || len(im) != n {
		return 0, errors.New("dft: spectrum length mismatch")
	}
	if n == 0 {
		return 0, nil
	}
	w := 2 * math.Pi / float64(n)
	maxErr := 0.0
	for t := 0; t < n; t++ {
		var sum float64
		j := 0 // k·t mod n, as in Transform
		for k := 0; k < n; k++ {
			angle := w * float64(j)
			sum += re[k]*math.Cos(angle) - im[k]*math.Sin(angle)
			if j += t; j >= n {
				j -= n
			}
		}
		sum /= float64(n)
		if e := math.Abs(sum - signal[t]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr, nil
}

func TestInverseCheckRoundTrip(t *testing.T) {
	sig := workload.Signal(7, 32)
	re, im, err := Transform(sig, PreciseTrig())
	if err != nil {
		t.Fatal(err)
	}
	maxErr, err := InverseCheck(sig, re, im)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-9 {
		t.Errorf("reconstruction error %v", maxErr)
	}
	if _, err := InverseCheck(sig, re[:1], im); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTrigCalls(t *testing.T) {
	if got := TrigCalls(64); got != 2*64*64 {
		t.Errorf("TrigCalls(64) = %d", got)
	}
	if got := TrigCalls(0); got != 0 {
		t.Errorf("TrigCalls(0) = %d", got)
	}
}

// The paper's Figure 22 claim shape: QoS loss decreases with trig grade
// accuracy, and beyond ~7.3 digits is effectively zero.
func TestApproxTrigQoSShape(t *testing.T) {
	sig := workload.Signal(9, 96)
	reP, imP, err := Transform(sig, PreciseTrig())
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, g := range approxmath.TrigGrades {
		trig := Trig{Sin: approxmath.SinFn(g), Cos: approxmath.CosFn(g)}
		re, im, err := Transform(sig, trig)
		if err != nil {
			t.Fatal(err)
		}
		lossRe, err := metrics.RMSNormDiff(reP, re)
		if err != nil {
			t.Fatal(err)
		}
		lossIm, err := metrics.RMSNormDiff(imP, im)
		if err != nil {
			t.Fatal(err)
		}
		loss := (lossRe + lossIm) / 2
		if loss > prev+1e-12 {
			t.Errorf("grade %v loss %v worse than previous %v", g, loss, prev)
		}
		prev = loss
		if g == approxmath.Trig73 && loss > 1e-4 {
			t.Errorf("7.3-digit loss %v not negligible", loss)
		}
	}
	// The lowest grade must show *some* loss — that's the tradeoff.
	trig := Trig{Sin: approxmath.SinFn(approxmath.Trig32), Cos: approxmath.CosFn(approxmath.Trig32)}
	re, _, _ := Transform(sig, trig)
	loss, _ := metrics.RMSNormDiff(reP, re)
	if loss == 0 {
		t.Error("3.2-digit grade shows zero loss; experiment would be vacuous")
	}
}

// Every twiddle Transform hands its kernel is w·(k·t mod N), bit for bit,
// and so in [0, 2π); with the exact index the precise transform agrees
// with the FFT to within a few ulps of the spectrum.
func TestTransformTwiddlesExact(t *testing.T) {
	const n = 128
	w := 2 * math.Pi / n
	var cosArgs, sinArgs []float64
	rec := Trig{
		Cos: func(x float64) float64 { cosArgs = append(cosArgs, x); return math.Cos(x) },
		Sin: func(x float64) float64 { sinArgs = append(sinArgs, x); return math.Sin(x) },
	}
	if _, _, err := Transform(workload.Signal(3, n), rec); err != nil {
		t.Fatal(err)
	}
	if int64(len(cosArgs)+len(sinArgs)) != TrigCalls(n) || len(cosArgs) != len(sinArgs) {
		t.Fatalf("%d cos + %d sin calls, want %d in all", len(cosArgs), len(sinArgs), TrigCalls(n))
	}
	for i, x := range cosArgs {
		k, tt := i/n, i%n
		if want := w * float64(k*tt%n); x != want || x < 0 || x >= 2*math.Pi {
			t.Fatalf("k=%d t=%d: cos argument %v, want %v in [0, 2π)", k, tt, x, want)
		}
		if sinArgs[i] != x {
			t.Fatalf("k=%d t=%d: sin argument %v, cos argument %v", k, tt, sinArgs[i], x)
		}
	}

	for _, c := range []struct {
		n   int
		tol float64
	}{{128, 5e-14}, {1024, 1e-12}} {
		sig := workload.Signal(int64(c.n), c.n)
		reD, imD, err := Transform(sig, PreciseTrig())
		if err != nil {
			t.Fatal(err)
		}
		reF, imF, err := FFT(sig)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for k := range reD {
			worst = math.Max(worst, math.Max(math.Abs(reD[k]-reF[k]), math.Abs(imD[k]-imF[k])))
		}
		if worst > c.tol {
			t.Errorf("n=%d: Transform vs FFT differ by %.2g, want ≤ %g", c.n, worst, c.tol)
		}
	}
}

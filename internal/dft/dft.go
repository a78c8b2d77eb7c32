// Package dft implements the signal-processing benchmark of the paper's
// evaluation: a direct O(N²) Discrete Fourier Transform whose inner loop
// is dominated by sin/cos evaluations. The trigonometric functions are
// injectable so the graded approximations from internal/approxmath can be
// substituted — the function-approximation experiment of Figures 21/22
// (versions C(d) approximate cos only; C+S(d) approximate both cos and
// sin at d decimal digits).
package dft

import (
	"errors"
	"math"
)

// Trig supplies the transform's trigonometric kernel.
type Trig struct {
	Sin func(float64) float64
	Cos func(float64) float64
}

// PreciseTrig uses the standard library.
func PreciseTrig() Trig { return Trig{Sin: math.Sin, Cos: math.Cos} }

// Transform computes the DFT of a real signal:
//
//	Re[k] = Σ_n x[n]·cos(2πkn/N),  Im[k] = -Σ_n x[n]·sin(2πkn/N)
//
// with the provided trig kernel, and returns the real and imaginary
// parts. The work is N² cos and N² sin evaluations. Each angle is
// w·(k·t mod N), in [0, 2π): the kernel never sees an argument it must
// range-reduce, and the precise result carries less rounding error.
func Transform(signal []float64, trig Trig) (re, im []float64, err error) {
	if trig.Sin == nil || trig.Cos == nil {
		return nil, nil, errors.New("dft: nil trig kernel")
	}
	n := len(signal)
	re = make([]float64, n)
	im = make([]float64, n)
	if n == 0 {
		return re, im, nil
	}
	w := 2 * math.Pi / float64(n)
	for k := 0; k < n; k++ {
		var sr, si float64
		j := 0 // k·t mod n, carried without a divide
		for t := 0; t < n; t++ {
			angle := w * float64(j)
			sr += signal[t] * trig.Cos(angle)
			si -= signal[t] * trig.Sin(angle)
			if j += k; j >= n {
				j -= n
			}
		}
		re[k] = sr
		im[k] = si
	}
	return re, im, nil
}

// TrigCalls returns the number of sin plus cos evaluations Transform
// performs for a signal of length n: the work-unit count of the DFT
// experiments.
func TrigCalls(n int) int64 { return 2 * int64(n) * int64(n) }

package dft

import (
	"errors"
	"math"
	"testing"

	"green/internal/workload"
)

// FFT computes the same transform as Transform with the precise kernel,
// via an iterative radix-2 Cooley-Tukey algorithm. The signal length must
// be a power of two. It is the independent oracle the tests hold the
// O(N²) DFT to; the experiments keep the direct DFT because the paper's
// substrate is the direct transform, whose cost is dominated by trig.
func FFT(signal []float64) (re, im []float64, err error) {
	n := len(signal)
	if n == 0 {
		return nil, nil, nil
	}
	if n&(n-1) != 0 {
		return nil, nil, errors.New("dft: FFT length must be a power of two")
	}
	re = make([]float64, n)
	im = make([]float64, n)
	// Bit-reversal permutation.
	copy(re, signal)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0 := start + k
				i1 := start + k + half
				uRe, uIm := re[i0], im[i0]
				vRe := re[i1]*curRe - im[i1]*curIm
				vIm := re[i1]*curIm + im[i1]*curRe
				re[i0], im[i0] = uRe+vRe, uIm+vIm
				re[i1], im[i1] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
	return re, im, nil
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 128} {
		sig := workload.Signal(int64(n), n)
		reD, imD, err := Transform(sig, PreciseTrig())
		if err != nil {
			t.Fatal(err)
		}
		reF, imF, err := FFT(sig)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if math.Abs(reD[k]-reF[k]) > 1e-8 || math.Abs(imD[k]-imF[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: DFT (%v,%v) vs FFT (%v,%v)",
					n, k, reD[k], imD[k], reF[k], imF[k])
			}
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 6, 12, 100} {
		if _, _, err := FFT(make([]float64, n)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	re, im, err := FFT(nil)
	if err != nil || len(re) != 0 || len(im) != 0 {
		t.Errorf("empty FFT = (%v, %v, %v)", re, im, err)
	}
}

func TestFFTPureTone(t *testing.T) {
	const n = 32
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 5 * float64(i) / n)
	}
	re, im, err := FFT(sig)
	if err != nil {
		t.Fatal(err)
	}
	for k := range re {
		m, want := math.Hypot(re[k], im[k]), 0.0
		if k == 5 || k == n-5 {
			want = n / 2
		}
		if math.Abs(m-want) > 1e-9 {
			t.Errorf("bin %d = %v, want %v", k, m, want)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	sig := workload.Signal(9, 256)
	re, im, err := FFT(sig)
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

func BenchmarkDirectDFT128(b *testing.B) {
	sig := workload.Signal(1, 128)
	for i := 0; i < b.N; i++ {
		if _, _, err := Transform(sig, PreciseTrig()); err != nil {
			b.Fatal(err)
		}
	}
}

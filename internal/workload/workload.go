// Package workload provides the deterministic input generators shared by
// the experiment substrates: a Zipf sampler for search corpora and query
// logs, uniform scalar streams for signals, an option portfolio,
// and seed-splitting so every experiment is reproducible from a single
// root seed.
package workload

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic PRNG for the given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child seed from a root seed and a stream index, so
// independent generators can be created from one experiment seed without
// correlation.
func Split(seed int64, stream int64) int64 {
	// SplitMix64-style mixing.
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// UniformFloats returns n values uniform in [lo, hi).
func UniformFloats(seed int64, n int, lo, hi float64) []float64 {
	rng := NewRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*rng.Float64()
	}
	return xs
}

// Option is one European option for the blackscholes workload.
type Option struct {
	Spot     float64 // current underlying price
	Strike   float64
	Rate     float64 // risk-free rate
	Vol      float64 // volatility
	Maturity float64 // years
	IsPut    bool
}

// Options generates a deterministic option portfolio mirroring the PARSEC
// blackscholes input distribution: spot/strike ratios near 1 (so the log
// arguments fall in the Taylor-friendly region the paper calibrates,
// Figure 8(b)) and maturities/vols in realistic ranges.
func Options(seed int64, n int) []Option {
	rng := NewRand(seed)
	opts := make([]Option, n)
	for i := range opts {
		strike := 20 + 80*rng.Float64()
		ratio := math.Exp(0.15 * rng.NormFloat64()) // spot/strike around 1
		opts[i] = Option{
			Spot:     strike * ratio,
			Strike:   strike,
			Rate:     0.01 + 0.09*rng.Float64(),
			Vol:      0.10 + 0.50*rng.Float64(),
			Maturity: 0.25 + 2.75*rng.Float64(),
			IsPut:    rng.Intn(2) == 0,
		}
	}
	return opts
}

// Signal generates a deterministic random signal of n samples with real
// values in [0, 1), matching the paper's DFT input data-sets ("each input
// sample has a random real value from 0 to 1").
func Signal(seed int64, n int) []float64 {
	return UniformFloats(seed, n, 0, 1)
}

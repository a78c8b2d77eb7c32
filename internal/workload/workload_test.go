package workload

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitProducesDistinctStreams(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := int64(0); stream < 100; stream++ {
		s := Split(42, stream)
		if seen[s] {
			t.Fatalf("duplicate child seed for stream %d", stream)
		}
		seen[s] = true
	}
	if Split(42, 1) != Split(42, 1) {
		t.Error("Split not deterministic")
	}
	if Split(42, 1) == Split(43, 1) {
		t.Error("different roots should give different children")
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(1, 1.2, 0); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := NewZipf(1, 1.0, 100); err == nil {
		t.Error("exponent 1.0 accepted")
	}
	if _, err := NewZipf(1, math.NaN(), 100); err == nil {
		t.Error("NaN exponent accepted") // its sampler would never accept a draw
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(1, 1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// Head must dominate: rank 0 much more frequent than rank 100.
	if counts[0] < 10*counts[100]+1 {
		t.Errorf("zipf not skewed: c0=%d c100=%d", counts[0], counts[100])
	}
}

func TestUniformFloats(t *testing.T) {
	xs := UniformFloats(3, 1000, -2, 5)
	if len(xs) != 1000 {
		t.Fatalf("len = %d", len(xs))
	}
	for _, x := range xs {
		if x < -2 || x >= 5 {
			t.Fatalf("value %v out of range", x)
		}
	}
	ys := UniformFloats(3, 1000, -2, 5)
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestOptionsRealistic(t *testing.T) {
	opts := Options(13, 5000)
	if len(opts) != 5000 {
		t.Fatalf("len = %d", len(opts))
	}
	puts := 0
	for _, o := range opts {
		if o.Spot <= 0 || o.Strike <= 0 || o.Vol <= 0 || o.Maturity <= 0 {
			t.Fatalf("invalid option %+v", o)
		}
		ratio := o.Spot / o.Strike
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("extreme spot/strike ratio %v", ratio)
		}
		if o.IsPut {
			puts++
		}
	}
	if puts < 2000 || puts > 3000 {
		t.Errorf("puts = %d of 5000, want roughly half", puts)
	}
}

func TestSignalRange(t *testing.T) {
	s := Signal(17, 256)
	if len(s) != 256 {
		t.Fatalf("len = %d", len(s))
	}
	for _, v := range s {
		if v < 0 || v >= 1 {
			t.Fatalf("sample %v outside [0,1)", v)
		}
	}
}

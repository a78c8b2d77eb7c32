package workload

// The rejection-inversion arithmetic in this file (newZipf's constants,
// h, hinv and exact) is math/rand's zipf.go, kept operation for operation
// so the stream is math/rand's stream:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go distribution's LICENSE file.
//
//	W.Hormann, G.Derflinger:
//	"Rejection-Inversion to Generate Variates
//	from Monotone Discrete Distributions"
//
// (the notice is reproduced in DESIGN.md, "The corpus generator").

import (
	"errors"
	"math"
	"math/rand"
)

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s,
// which models both term popularity in a document corpus and query
// frequency in a production log. The stream is, value for value, the one
// math/rand's NewZipf(NewRand(seed), s, 1, n-1) emits; what differs is the
// cost of a draw. One turn of rejection-inversion maps a uniform r to
// ur = hxm + r*hx0minusHxm, inverts it to x = hinv(ur) (an Exp and a
// Log), rounds x to k and accepts k if k-x <= s or, failing that, if
// ur >= h(k+½) - (k+v)^-q (another Exp and Log). Both questions about x
// are questions about ur, because h is increasing: x rounds to k iff
// h(k-½) <= ur < h(k+½), and k-x <= s iff ur >= h(k-s). Next answers them
// from a table of those thresholds for the first zipfHead values — most
// turns from r alone, with one load — and runs the arithmetic only where
// the table cannot be trusted to agree with it.
type Zipf struct {
	rng *rand.Rand

	// math/rand's constants under math/rand's names: q is the exponent,
	// s the squeeze width, v is fixed at 1 (zipfV).
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// head[k] holds value k's thresholds for k < K = len(head)-2; head[K]
	// and head[K+1] are sentinels (see newZipf). cells cuts [0, 1) into
	// zipfCells equal slices of r; cells[c] is the turn's verdict when the
	// walk gives one and the same for every ur of slice c, and otherwise a
	// k whose lo is at or below every ur of it, so the walk starts there.
	head  []zipfRow
	cells []uint16
}

// zipfRow is one value's thresholds in ur-space.
type zipfRow struct {
	lo      float64 // h(k-½): x rounds to k from here up to the next row's lo
	squeeze float64 // h(k-s): the first test passes from here up
	accept  float64 // h(k+½)-(k+v)^-q: the second test's right-hand side, bit for bit
}

const (
	zipfV = 1.0
	// zipfHead is how many values are tabled. The head is where the draws
	// are (the whole range of the corpus and query samplers, three
	// quarters of the draws at s = 1.01 over 100 000 values); tabling a
	// long tail buys cache misses and a constructor measured in
	// milliseconds.
	zipfHead = 2048
	// zipfGuard is the relative half-width of the band around a threshold
	// inside which the table defers to the arithmetic. The table's
	// threshold and math/rand's decision on x each sit within a few 1e-16
	// (relative, in ur) of the real threshold — at most 3e-13 at q = 32
	// over the whole uint64 range — so outside 1e-9 the two cannot
	// disagree.
	zipfGuard = 1e-9
	// zipfMaxQ bounds that error budget: the (q-1)·log(v+x) term in it
	// grows with the exponent, so a steeper sampler gets no table.
	zipfMaxQ = 32
	// zipfCells is the cell table's length, 128 KB. It decides 97 % of
	// the corpus sampler's turns alone, and the 200k corpus builds in
	// 0.7× the time it takes at 2^14 cells, which decide 94 % and leave
	// twice as many turns to a walk the branch predictor cannot foresee;
	// the constructor takes 1.4× as long. 2^17 cells gain nothing more.
	zipfCells = 1 << 16
	// A cell below zipfVerdict holds a start row; zipfVerdict+k accepts k,
	// zipfRejected rejects, and zipfBeyond sends a slice past the head to
	// the arithmetic.
	zipfVerdict  = 1 << 15
	zipfRejected = 1<<16 - 1
	zipfBeyond   = 1<<16 - 2
)

// NewZipf creates a Zipf sampler over [0, n) with exponent s > 1.
func NewZipf(seed int64, s float64, n uint64) (*Zipf, error) {
	if n == 0 {
		return nil, errors.New("workload: zipf needs a positive range")
	}
	if !(s > 1) {
		return nil, errors.New("workload: zipf exponent must be > 1")
	}
	return newZipf(NewRand(seed), s, n), nil
}

func newZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	z := &Zipf{rng: rng, q: s}
	imax := float64(n - 1)
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(zipfV)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(zipfV+1.0)))
	if s > zipfMaxQ {
		return z
	}

	rows := int(min(n, zipfHead))
	z.head = make([]zipfRow, rows+2)
	for i := range z.head[:rows] {
		k := float64(i)
		z.head[i] = zipfRow{
			lo:      z.h(k - 0.5),
			squeeze: z.h(k - z.s),
			accept:  z.h(k+0.5) - math.Exp(-math.Log(k+zipfV)*z.q),
		}
	}
	// Row K closes the head and decides nothing: a probe that walks onto
	// it is sent to the arithmetic by its thresholds alone. Row K+1 stops
	// the walk.
	z.head[rows] = zipfRow{lo: z.h(float64(rows) - 0.5), squeeze: math.Inf(-1), accept: math.Inf(1)}
	z.head[rows+1].lo = math.Inf(1)

	// Slice c holds the r in [c, c+1)/zipfCells, so its ur lie in [a, b]
	// with a = ur((c+1)/zipfCells), b = ur(c/zipfCells): ur is affine in
	// r and falls as r rises, and so does its float value. The band is
	// the walk's widest over the slice, at a. A threshold outside [a, b]
	// by more than that is outside the band of every ur of the slice, so
	// the walk decides each of them, and alike.
	z.cells = make([]uint16, zipfCells)
	k := 0
	for c := len(z.cells) - 1; c >= 0; c-- {
		a, b := z.ur(float64(c+1)/zipfCells), z.ur(float64(c)/zipfCells)
		for z.head[k+1].lo <= a {
			k++
		}
		row, band := &z.head[k], -zipfGuard*a
		switch {
		case k == rows:
			z.cells[c] = zipfBeyond
		case a-row.lo <= band || z.head[k+1].lo-b <= band:
			z.cells[c] = uint16(k)
		case a >= row.accept:
			z.cells[c] = zipfVerdict + uint16(k)
		case b < row.accept && row.squeeze-b > band:
			z.cells[c] = zipfRejected
		default:
			z.cells[c] = uint16(k)
		}
	}
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(zipfV+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - zipfV
}

// ur is the point r maps to in ur-space.
func (z *Zipf) ur(r float64) float64 { return z.hxm + r*z.hx0minusHxm }

// Next draws the next value: one rng.Float64 per turn, as math/rand.
func (z *Zipf) Next() uint64 {
	for {
		r := z.rng.Float64()
		k, verdict := z.probe(r)
		if verdict == zipfUnsure {
			k, verdict = z.exact(z.ur(r))
		}
		if verdict == zipfAccept {
			return k
		}
	}
}

// What one turn decides about its ur.
const (
	zipfUnsure = iota // the table does not say; ask exact
	zipfAccept
	zipfReject
)

// probe decides the turn of r from the tables, or reports zipfUnsure: no
// table, ur beyond the tabled head, or within the guard band of the
// threshold on either side of its row or of the row's squeeze threshold.
// r*zipfCells is exact, so r's slice is too.
func (z *Zipf) probe(r float64) (uint64, int) {
	c := int(r * zipfCells)
	if uint(c) >= uint(len(z.cells)) {
		return 0, zipfUnsure
	}
	switch e := int(z.cells[c]); {
	case e < zipfVerdict:
		return z.walk(z.ur(r), e)
	case e == zipfRejected:
		return 0, zipfReject
	case e == zipfBeyond:
		return 0, zipfUnsure
	default:
		return uint64(e - zipfVerdict), zipfAccept
	}
}

// walk finds ur's row from row k up and decides the turn by the row's
// thresholds. The second test needs no band — accept holds the very
// float math/rand compares ur with.
func (z *Zipf) walk(ur float64, k int) (uint64, int) {
	for ur >= z.head[k+1].lo {
		k++
	}
	row, band := &z.head[k], -zipfGuard*ur // ur < 0: h is negative throughout
	switch {
	case ur-row.lo <= band || z.head[k+1].lo-ur <= band:
		return 0, zipfUnsure
	case ur >= row.accept:
		return uint64(k), zipfAccept
	case row.squeeze-ur > band:
		return 0, zipfReject
	}
	return 0, zipfUnsure
}

// exact is one turn of math/rand.(*Zipf).Uint64 on the ur it would have
// computed.
func (z *Zipf) exact(ur float64) (uint64, int) {
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), zipfAccept
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+zipfV)*z.q) {
		return uint64(k), zipfAccept
	}
	return 0, zipfReject
}

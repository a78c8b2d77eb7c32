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
// from a table of those thresholds for the first zipfHead values and runs
// the arithmetic only where the table cannot be trusted to agree with it.
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
	// and head[K+1] are sentinels (see newZipf). cells[c] is a k whose lo
	// is at or below every ur of the c-th of len(cells) equal slices of
	// [head[0].lo, head[K].lo), so a probe starts there and walks up.
	head    []zipfRow
	cells   []uint16
	cell0   float64
	cellInv float64
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

	z.cells = make([]uint16, 2*rows)
	z.cell0 = z.head[0].lo
	z.cellInv = float64(len(z.cells)) / (z.head[rows].lo - z.cell0)
	k := 0
	for c := range z.cells {
		// cell is monotone, so a row whose lo falls in an earlier cell
		// lies below every ur of this one.
		for k < rows && z.cell(z.head[k+1].lo) < c {
			k++
		}
		z.cells[c] = uint16(k)
	}
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(zipfV+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - zipfV
}

func (z *Zipf) cell(ur float64) int { return int((ur - z.cell0) * z.cellInv) }

// Next draws the next value: one rng.Float64 per turn, as math/rand.
func (z *Zipf) Next() uint64 {
	for {
		ur := z.hxm + z.rng.Float64()*z.hx0minusHxm
		k, verdict := z.probe(ur)
		if verdict == zipfUnsure {
			k, verdict = z.exact(ur)
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

// probe decides a turn from the tables, or reports zipfUnsure: ur beyond
// the tabled head, or within the guard band of the threshold on either
// side of its row or of the row's squeeze threshold. The second test
// needs no band — accept holds the very float math/rand compares ur with.
func (z *Zipf) probe(ur float64) (uint64, int) {
	c := z.cell(ur)
	if uint(c) >= uint(len(z.cells)) {
		return 0, zipfUnsure
	}
	k := int(z.cells[c])
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

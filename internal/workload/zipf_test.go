package workload

import (
	"math"
	"math/rand"
	"testing"
)

// zipfCases are the samplers the tree builds (1.4 and 1.8 over a 2000-term
// vocabulary), one with a long untabled tail, one whose whole range is a
// handful of rows, and a steep one whose late thresholds crowd inside each
// other's guard bands.
var zipfCases = []struct {
	s float64
	n uint64
}{{1.4, 2000}, {1.8, 2000}, {1.01, 100000}, {1.4, 10}, {3.0, 50}}

// TestZipfMatchesMathRand: the stream is math/rand's, draw for draw.
func TestZipfMatchesMathRand(t *testing.T) {
	draws := 2_000_000 // per case and seed: 2·10⁷ in all
	if testing.Short() {
		draws = 100_000
	}
	for _, c := range zipfCases {
		for _, seed := range []int64{1, Split(7, 1)} {
			z, err := NewZipf(seed, c.s, c.n)
			if err != nil {
				t.Fatal(err)
			}
			ref := rand.NewZipf(NewRand(seed), c.s, 1, c.n-1)
			for i := 0; i < draws; i++ {
				if got, want := z.Next(), ref.Uint64(); got != want {
					t.Fatalf("s=%v n=%d seed=%d: draw %d is %d, math/rand's is %d", c.s, c.n, seed, i, got, want)
				}
			}
		}
	}
}

// script is a rand.Source that replays chosen Float64 values and counts
// how many were taken.
type script struct {
	rs    []float64
	taken int
}

func (s *script) Int63() int64 {
	r := s.rs[s.taken%len(s.rs)]
	s.taken++
	return int64(r * (1 << 63)) // Float64 divides it back
}
func (s *script) Seed(int64) {}

// TestZipfGuardBand walks every threshold of every case and feeds the
// sampler ur at it, just inside its guard band and just outside, on both
// sides: probe must defer to the arithmetic inside the band and beyond
// the head and decide alone outside. Then it feeds every cell edge and an
// ulp either side of it: a cell that holds a verdict must hold what the
// walk from the first row decides there, and whatever probe decides
// must be exact's answer. Whichever path runs, the scripted stream
// equals math/rand's over the same script with the same number of
// Float64 taken.
func TestZipfGuardBand(t *testing.T) {
	for _, c := range zipfCases {
		z := newZipf(nil, c.s, c.n)
		rows := len(z.head) - 2
		if want := int(min(c.n, zipfHead)); rows != want || len(z.cells) != zipfCells {
			t.Fatalf("s=%v n=%d: %d rows tabled in %d cells, want %d in %d", c.s, c.n, rows, len(z.cells), want, zipfCells)
		}
		var rs []float64
		// take scripts r, moved onto Float64's grid of multiples of 2^-63,
		// and returns what Next will draw.
		take := func(r float64) float64 {
			r = float64(int64(r*(1<<63))) / (1 << 63)
			rs = append(rs, r)
			return r
		}
		deferred, decided := 0, 0
		// at feeds one ur. Inside a threshold's band the table must defer —
		// unless the turn is over before that threshold is consulted: accept
		// is the second test's own float, and the squeeze threshold of row 1
		// is that very test (pass +Inf where there is no such way out).
		at := func(ur float64, inBand bool, accept float64, what string, k int) {
			t.Helper()
			r := (ur - z.hxm) / z.hx0minusHxm
			if !(r >= 0 && r < 1) {
				return // no Float64 maps there (the two ends of the range)
			}
			r = take(r)
			ur = z.ur(r)
			wantUnsure := inBand && ur < accept
			if _, verdict := z.probe(r); (verdict == zipfUnsure) != wantUnsure {
				t.Fatalf("s=%v n=%d: ur %v %s of row %d: probe verdict %d", c.s, c.n, ur, what, k, verdict)
			}
			if wantUnsure {
				deferred++
			} else {
				decided++
			}
		}
		// around feeds the spots about one threshold — on it, an ulp or two
		// off it (where the arithmetic's own rounding decides), half a band
		// off it, two bands off it; outside the band the table decides, unless a neighbour's band covers the spot (late
		// in the steep case they all overlap).
		around := func(thr, accept float64, k int) {
			t.Helper()
			for _, off := range []float64{0, -3e-16, 3e-16, -zipfGuard / 2, zipfGuard / 2} {
				at(thr*(1+off), true, accept, "in the band of a threshold", k)
			}
			for _, off := range []float64{-2 * zipfGuard, 2 * zipfGuard} {
				if ur := thr * (1 + off); k < rows && !z.banded(ur) {
					at(ur, false, accept, "outside every band", k)
				}
			}
		}
		for k := 0; k <= rows; k++ {
			around(z.head[k].lo, math.Inf(1), k)
			if k < rows { // the closing row has no squeeze
				around(z.head[k].squeeze, z.head[k].accept, k)
			}
		}
		if c.n > zipfHead {
			at(z.h(float64(rows)+40), true, math.Inf(1), "beyond the head", rows)
			at(z.h(float64(c.n-1)), true, math.Inf(1), "beyond the head", rows)
		}
		if deferred == 0 || decided == 0 {
			t.Fatalf("s=%v n=%d: %d deferred and %d decided probes; both paths must be exercised", c.s, c.n, deferred, decided)
		}

		// next is the Float64 beside r toward dir: an ulp off, or 2^-63
		// where Float64's grid is coarser than float64's (r < 2^-10).
		next := func(r, dir float64) float64 {
			n := math.Nextafter(r, dir)
			if g := n * (1 << 63); g != math.Trunc(g) {
				n = r + math.Copysign(0x1p-63, dir-r)
			}
			return n
		}
		var paths [3]int // by the cell's verdict, by the walk, by exact
		for i := 0; i <= zipfCells; i++ {
			edge := float64(i) / zipfCells
			for _, r := range []float64{next(edge, 0), edge, next(edge, 1)} {
				if !(r >= 0 && r < 1) {
					continue
				}
				r = take(r)
				ur := z.ur(r)
				k, verdict := z.probe(r)
				path := 2
				if verdict != zipfUnsure {
					path = 1
					if ek, ev := z.exact(ur); ek != k || ev != verdict {
						t.Fatalf("s=%v n=%d: r %v at cell edge %d: probe says %d/%d, exact %d/%d", c.s, c.n, r, i, k, verdict, ek, ev)
					}
				}
				cell := int(r * zipfCells)
				if e := z.cells[cell]; e >= zipfVerdict && e != zipfBeyond {
					path = 0
				}
				if wk, wv := z.walk(ur, 0); wk != k || wv != verdict {
					t.Fatalf("s=%v n=%d: r %v at cell edge %d: cell %d (entry %#x) gives %d/%d, the walk from row 0 %d/%d",
						c.s, c.n, r, i, cell, z.cells[cell], k, verdict, wk, wv)
				}
				paths[path]++
			}
		}
		if paths[0] == 0 || paths[1] == 0 {
			t.Fatalf("s=%v n=%d: cell edges took the verdict, walk and exact paths %v times; the first two must be exercised", c.s, c.n, paths)
		}

		mine, theirs := &script{rs: rs}, &script{rs: rs}
		z.rng = rand.New(mine)
		ref := rand.NewZipf(rand.New(theirs), c.s, 1, c.n-1)
		for i := 0; i < 2*len(rs); i++ {
			if got, want := z.Next(), ref.Uint64(); got != want || mine.taken != theirs.taken {
				t.Fatalf("s=%v n=%d: scripted draw %d is %d after %d Float64, math/rand's is %d after %d",
					c.s, c.n, i, got, mine.taken, want, theirs.taken)
			}
		}
	}
}

// banded reports whether ur lies within the guard band of any tabled
// threshold, by the definition rather than by probe's walk.
func (z *Zipf) banded(ur float64) bool {
	band := -zipfGuard * ur
	for _, row := range z.head[:len(z.head)-1] {
		if math.Abs(ur-row.lo) <= band || math.Abs(ur-row.squeeze) <= band {
			return true
		}
	}
	return false
}

// TestZipfSteepExponentUntabled: past zipfMaxQ the error budget behind
// the guard band is not claimed, so there is no table to trust.
func TestZipfSteepExponentUntabled(t *testing.T) {
	z, err := NewZipf(3, zipfMaxQ+1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.head) != 0 || len(z.cells) != 0 {
		t.Fatalf("exponent %v got %d rows", z.q, len(z.head))
	}
	ref := rand.NewZipf(NewRand(3), zipfMaxQ+1, 1, 99)
	for i := 0; i < 1000; i++ {
		if got, want := z.Next(), ref.Uint64(); got != want {
			t.Fatalf("draw %d is %d, math/rand's is %d", i, got, want)
		}
	}
}

// FuzzZipfStream: any seed, exponent and range the constructor accepts
// gives math/rand's first 4096 draws.
func FuzzZipfStream(f *testing.F) {
	for _, c := range zipfCases {
		f.Add(int64(1), c.s, c.n)
	}
	f.Add(int64(-9), 1.0000001, uint64(1))
	f.Add(int64(5), 31.9, uint64(3000))
	f.Add(int64(5), 40.0, uint64(1)<<40)
	f.Fuzz(func(t *testing.T, seed int64, s float64, n uint64) {
		if !(s <= 64) { // steeper only underflows; NaN is refused below
			s = 1 + math.Mod(math.Abs(s), 63)
		}
		z, err := NewZipf(seed, s, n)
		if err != nil {
			if n != 0 && s > 1 {
				t.Fatalf("NewZipf(%d, %v, %d): %v", seed, s, n, err)
			}
			return
		}
		ref := rand.NewZipf(NewRand(seed), s, 1, n-1)
		for i := 0; i < 4096; i++ {
			if got, want := z.Next(), ref.Uint64(); got != want {
				t.Fatalf("seed=%d s=%v n=%d: draw %d is %d, math/rand's is %d", seed, s, n, i, got, want)
			}
		}
	})
}

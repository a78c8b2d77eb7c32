package search

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"

	"green/internal/workload"
)

// certifyTable is the committed distribution of where Scan.Final first
// holds; TestCertifyTable regenerates it and fails if the two differ.
const certifyTable = "../../results/certify.txt"

// windowQmax is the largest quality at or after each windowIDs-aligned
// block of ids: the per-list certificate's quality term.
func windowQmax(e *Engine) []float64 {
	out := make([]float64, (len(e.quality)+windowIDs-1)/windowIDs)
	for d, m := len(e.quality)-1, math.Inf(-1); d >= 0; d-- {
		m = max(m, e.quality[d])
		out[d/windowIDs] = m
	}
	return out
}

// unreached settles what a certificate decides before it bounds the
// documents no list has reached: done says the pending window or an
// exhausted scan already decided final; otherwise next is the smallest
// unreached id and floor the page's.
func unreached(s *Scan) (done, final bool, next uint32, floor float64) {
	if s.topNCap <= 0 || s.Exhausted() {
		return true, true, 0, 0
	}
	w := &s.win
	floor = s.heap.floor()
	for wi := w.word; w.pending > 0 && wi < windowWords; wi++ {
		for c := w.cand[wi]; c != 0; c &= c - 1 {
			if beats(w.acc[wi<<6|bits.TrailingZeros64(c)], floor) {
				return true, false, 0, 0
			}
		}
	}
	if len(s.cursors) == 0 {
		return true, true, 0, 0
	}
	next = uint32(math.MaxUint32)
	for _, c := range s.cursors {
		next = min(next, c.ps[c.pos].Doc)
	}
	return false, false, next, floor
}

// perListFinal is the first certificate, kept as a reference: a document
// no list has reached scores at most the largest quality at or after
// next's window plus each live list's largest impact.
func perListFinal(s *Scan, qmax []float64) bool {
	done, final, next, floor := unreached(s)
	if done {
		return final
	}
	bound := qmax[next/windowIDs]
	for _, c := range s.cursors {
		bound += c.max
	}
	return !beats(bound, floor)
}

// perBlockFinal is the per-list bound over the blockIDs-id blocks'
// qmax, else, for every block from next's on, the block's best quality
// plus each live list's largest impact in it: the first block
// certificate, kept as a reference.
func perBlockFinal(s *Scan) bool {
	done, final, next, floor := unreached(s)
	if done {
		return final
	}
	e, b := s.engine, int(next/blockIDs)
	bound := e.qmax[b]
	for _, c := range s.cursors {
		bound += c.max
	}
	if !beats(bound, floor) {
		return true
	}
	for ; b < len(e.qblk); b++ {
		bound := e.qblk[b]
		for _, c := range s.cursors {
			bound += bf16(uint16(c.bm[b] >> 16))
		}
		if beats(bound, floor) {
			return false
		}
	}
	return true
}

// jointFinal is the certificate Final refines, kept as its reference:
// perBlockFinal's walk with each block's and group's sum lowered by the
// least live gain there (joint), groups that fail skipped whole. Final
// must hold wherever it does.
func jointFinal(s *Scan) bool {
	done, final, next, floor := unreached(s)
	if done {
		return final
	}
	e, b := s.engine, int(next/blockIDs)
	bound, total := e.qmax[b], e.qabs
	for _, c := range s.cursors {
		bound += c.max
		total += c.max
	}
	if !beats(bound, floor) {
		return true
	}
	margin, nblk := marginOf(len(s.cursors), total), len(e.qblk)
	for b < nblk {
		if g := b / groupBlocks; b%groupBlocks == 0 {
			if bound, gain := s.sumAt(e.qgrp[g], nblk+g); !beats(joint(bound, gain, margin), floor) {
				b += groupBlocks
				continue
			}
		}
		if bound, gain := s.sumAt(e.qblk[b], b); beats(joint(bound, gain, margin), floor) {
			return false
		}
		b++
	}
	return true
}

// perList, perBlock and jointRef are Scans whose Final is a
// reference's, so that finality holds the references' pages to the
// drained page as it does Final's.
type perList struct {
	*Scan
	qmax []float64
}

func (p perList) Final() bool { return perListFinal(p.Scan, p.qmax) }

type perBlock struct{ *Scan }

func (p perBlock) Final() bool { return perBlockFinal(p.Scan) }

type jointRef struct{ *Scan }

func (p jointRef) Final() bool { return jointFinal(p.Scan) }

// certifyGrant is how many documents a scan scores between certificate
// checks: /search checks every blockIDs documents.
const certifyGrant = blockIDs

// certifyRow summarises one query set under one bound: for each query,
// the documents a scan in certifyGrant-document grants had scored when
// the certificate first held, against its match count.
func certifyRow(name, bound string, at, matches []int) (row string, docsShare float64) {
	var fracs []float64
	var multi, sumAt, sumMatches int
	for i := range at {
		sumAt, sumMatches = sumAt+at[i], sumMatches+matches[i]
		if matches[i] > certifyGrant {
			multi++
		}
		if at[i] < matches[i] {
			fracs = append(fracs, float64(at[i])/float64(matches[i]))
		}
	}
	slices.Sort(fracs)
	pct := func(p int) string {
		if len(fracs) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", fracs[(len(fracs)-1)*p/100])
	}
	n, share := float64(len(at)), float64(sumAt)/float64(sumMatches)
	return fmt.Sprintf("%-9s  %-10s  %7d  %10.3f  %9.3f  %5s  %5s  %5s  %10.3f\n", name, bound, len(at),
		float64(multi)/n, float64(len(fracs))/n, pct(10), pct(50), pct(90), share), share
}

// TestCertifyTable regenerates results/certify.txt — how early the
// finality certificate ends a precise scan on the 200k-document corpus
// bench/ boots on — and requires it to equal the committed file; with
// GREEN_CERTIFY_OUT set it writes the table there instead. Every page it
// certifies is also held to the drained page.
func TestCertifyTable(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("a 200k-document corpus")
	}
	e, err := NewEngine(Config{Seed: 7, Docs: 200000})
	if err != nil {
		t.Fatal(err)
	}
	generated, err := e.GenerateQueries(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// band: 1–3 distinct terms uniform over the band serve's termsOf
	// hashes words into, the shape of /search traffic.
	band := make([]Query, 2000)
	rng := workload.NewRand(2)
	for i := range band {
		for k := 1 + rng.Intn(3); len(band[i].Terms) < k; {
			if term := e.StopTerms() + rng.Intn(e.Vocab()/10); !slices.Contains(band[i].Terms, term) {
				band[i].Terms = append(band[i].Terms, term)
			}
		}
	}
	qmax := windowQmax(e)
	var b strings.Builder
	fmt.Fprintf(&b, `# Where a precise scan's page becomes provably final (Scan.Final).
# 200k-document corpus, seed 7, top 10; the certificate is checked after
# every %[1]d-document grant, as /search checks it.
# per-list: an unreached document bounded by the best quality at or after
# its %[2]d-id window plus each live list's largest impact; per-block: by
# the largest, over the %[3]d-id blocks left, of the block's best quality
# plus each live list's largest impact in it; joint: by that per-block
# bound less the least, over the live lists with a posting in the block,
# of how far the list's best quality + impact there lies below it;
# subset: by the largest, over the live lists t with a posting in the
# block, of the block's best quality plus the largest impact of each
# live list whose such gap is at most t's, less t's (what Scan.Final
# uses; each bound certifies no later than the one before on every query).
# multi_block: share of queries matching more than one grant; certified:
# share final before exhaustion; p10/p50/p90: documents scored at
# certification over matches, among those; docs_share: documents scored
# until final over matches, all queries.
# Regenerate: GREEN_CERTIFY_OUT=$PWD/results/certify.txt go test -run '^TestCertifyTable$' ./internal/search
queries    bound       queries  multi_block  certified    p10    p50    p90  docs_share
`, certifyGrant, windowIDs, blockIDs)
	bounds := []string{"per-list", "per-block", "joint", "subset"}
	s := e.NewScan(Query{}, 10)
	for _, set := range []struct {
		name string
		qs   []Query
	}{{"generated", generated}, {"band", band}} {
		at := make([][]int, len(bounds))
		for j := range at {
			at[j] = make([]int, len(set.qs))
		}
		matches := make([]int, len(set.qs))
		for i, q := range set.qs {
			s.Reset(e, q, 10)
			scans := []blockScanner{perList{s, qmax}, perBlock{s}, jointRef{s}, s}
			f := make([]finality, len(scans))
			for n := certifyGrant; n == certifyGrant; {
				n = s.StepN(certifyGrant)
				for j := range f {
					if err := f[j].note(scans[j]); err != nil {
						t.Fatalf("q=%v: %v", q.Terms, err)
					}
				}
			}
			for j := range f {
				if err := f[j].drained(s); err != nil {
					t.Fatalf("q=%v: %v", q.Terms, err)
				}
				at[j][i] = f[j].at
			}
			for j := 1; j < len(bounds); j++ {
				if at[j][i] > at[j-1][i] {
					t.Errorf("%s q=%v: %s certifies at %d documents, %s at %d", set.name, q.Terms, bounds[j], at[j][i], bounds[j-1], at[j-1][i])
				}
			}
			matches[i] = s.Processed()
		}
		shares := make([]float64, len(bounds))
		for j, bound := range bounds {
			var row string
			row, shares[j] = certifyRow(set.name, bound, at[j], matches)
			b.WriteString(row)
		}
		if cap := map[string]float64{"generated": 0.21, "band": 0.33}[set.name]; shares[3] > cap || !slices.IsSortedFunc(shares, func(x, y float64) int { return cmp.Compare(y, x) }) {
			t.Errorf("%s: docs_share per-list, per-block, joint, subset %.3f: want each no more than the one before, and subset at most %.2f",
				set.name, shares, cap)
		}
	}
	if out := os.Getenv("GREEN_CERTIFY_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(certifyTable)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != b.String() {
		t.Fatalf("results/certify.txt is stale; regenerate it (see its header). Now:\n%s", b.String())
	}
}

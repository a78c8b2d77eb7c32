package search

import (
	"fmt"
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

// windowMaxima returns, per term, the largest impact of its postings at
// or after each windowIDs-aligned block of ids: the per-(list, window)
// refinement of maxImp that the table measures and the engine does not
// build.
func windowMaxima(e *Engine) [][]float64 {
	out := make([][]float64, len(e.postings))
	for t, ps := range e.postings {
		m, imp := make([]float64, len(e.qmax)+1), e.table(t)
		for _, p := range ps {
			m[p.Doc/windowIDs] = max(m[p.Doc/windowIDs], imp[p.pair])
		}
		for b := len(e.qmax) - 1; b >= 0; b-- {
			m[b] = max(m[b], m[b+1])
		}
		out[t] = m
	}
	return out
}

// refined is a Scan whose Final is refinedFinal, so that finality holds
// the refinement's pages to the drained page as it does Final's.
type refined struct {
	*Scan
	q    Query
	wmax [][]float64
}

func (r refined) Final() bool { return refinedFinal(r.Scan, r.q, r.wmax) }

// refinedFinal is Final with each live list bounded by its largest impact
// at or after the window its own cursor is in. It is at least as strong:
// every per-window maximum is at most the list's.
func refinedFinal(s *Scan, q Query, wmax [][]float64) bool {
	if s.Final() {
		return true
	}
	w, floor := &s.win, s.heap.floor()
	for wi := w.word; w.pending > 0 && wi < windowWords; wi++ {
		for c := w.cand[wi]; c != 0; c &= c - 1 {
			if beats(w.acc[wi<<6|bits.TrailingZeros64(c)], floor) {
				return false
			}
		}
	}
	next := s.cursors[0].ps[s.cursors[0].pos].Doc
	for _, c := range s.cursors {
		next = min(next, c.ps[c.pos].Doc)
	}
	bound := s.engine.qmax[next/windowIDs]
	for _, c := range s.cursors {
		for _, t := range q.Terms { // the cursor's term: the list it walks
			if ps := s.engine.postings[t]; len(ps) > 0 && &ps[0] == &c.ps[0] {
				bound += wmax[t][c.ps[c.pos].Doc/windowIDs]
				break
			}
		}
	}
	return !beats(bound, floor)
}

// certifyRow summarises one query set under one bound: for each query,
// the documents a scan in serve's 2048-document grants had scored when
// the certificate first held, against its match count.
func certifyRow(name, bound string, at, matches []int) string {
	var fracs []float64
	var multi, sumAt, sumMatches int
	for i := range at {
		sumAt, sumMatches = sumAt+at[i], sumMatches+matches[i]
		if matches[i] > windowIDs {
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
	n := float64(len(at))
	return fmt.Sprintf("%-9s  %-10s  %7d  %10.3f  %9.3f  %5s  %5s  %5s  %10.3f\n", name, bound, len(at),
		float64(multi)/n, float64(len(fracs))/n, pct(10), pct(50), pct(90), float64(sumAt)/float64(sumMatches))
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
	wmax := windowMaxima(e)
	var b strings.Builder
	b.WriteString(`# Where a precise scan's page becomes provably final (Scan.Final).
# 200k-document corpus, seed 7, top 10; the certificate is checked after
# every 2048-document grant, as /search's monitored scans check it.
# per-list: each live list bounded by its largest impact (what Scan.Final
# uses); per-window: by its largest impact at or after its cursor's
# 2048-id window (a refinement the engine does not build).
# multi_block: share of queries matching more than one grant; certified:
# share final before exhaustion; p10/p50/p90: documents scored at
# certification over matches, among those; docs_share: documents scored
# until final over matches, all queries.
# Regenerate: GREEN_CERTIFY_OUT=$PWD/results/certify.txt go test -run '^TestCertifyTable$' ./internal/search
queries    bound       queries  multi_block  certified    p10    p50    p90  docs_share
`)
	s := e.NewScan(Query{}, 10)
	for _, set := range []struct {
		name string
		qs   []Query
	}{{"generated", generated}, {"band", band}} {
		at := [2][]int{make([]int, len(set.qs)), make([]int, len(set.qs))}
		matches := make([]int, len(set.qs))
		for i, q := range set.qs {
			s.Reset(e, q, 10)
			scans := [2]blockScanner{s, refined{s, q, wmax}}
			var f [2]finality
			for n := windowIDs; n == windowIDs; {
				n = s.StepN(windowIDs)
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
			matches[i] = s.Processed()
		}
		b.WriteString(certifyRow(set.name, "per-list", at[0], matches))
		b.WriteString(certifyRow(set.name, "per-window", at[1], matches))
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

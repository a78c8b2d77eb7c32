package search

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// FuzzReadEngine hardens the index parser: arbitrary input must produce
// either a valid engine or ErrBadIndex — never a panic or a hang.
func FuzzReadEngine(f *testing.F) {
	// Seed with a real index and a few mutations of it.
	e, err := NewEngine(Config{Docs: 200, VocabSize: 30, AvgDocLen: 10, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GRNIDX1\n"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[50] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed engine must be internally consistent
		// enough to serve a query without panicking.
		if eng.Docs() <= 0 || eng.Vocab() <= 0 {
			t.Fatalf("parsed engine with sizes %d/%d", eng.Docs(), eng.Vocab())
		}
		eng.Search(Query{Terms: []int{0, 1}}, 5, 100)
	})
}

// refScore is the score Search gives doc for q, computed the way Search
// computes it — from the unpacked quality/docLen/avgLen columns, one
// term at a time in query order — so the packed-record kernels are
// checked against the original expression, not against themselves.
func refScore(e *Engine, q Query, doc uint32) float64 {
	score := e.quality[doc]
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) {
			continue
		}
		ps := e.postings[t]
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
		if i == len(ps) || ps[i].Doc != doc {
			continue
		}
		tf := float64(ps[i].TF)
		norm := bm25K1 * (1 - bm25B + bm25B*float64(e.docLen[doc])/e.avgLen)
		score += e.idf[t] * tf * (bm25K1 + 1) / (tf + norm)
	}
	return score
}

// blockScanner is what FuzzScanBlocks drives: Scan and ScanAnd.
type blockScanner interface {
	Step() bool
	StepN(int) int
	Processed() int
	Exhausted() bool
	TopNInto([]int) []int
	TopNResultsInto([]Result) []Result
}

// FuzzScanBlocks is the differential test of the block kernel: whatever
// the query, page size, shard layout and sequence of block sizes, after
// every block the scan's page must be the page Search (SearchAnd for
// ScanAnd) returns when capped at the same document count, with every
// score bit-equal to refScore; and an engine rebuilt by ReadEngine
// (which re-derives the packed per-document records rather than reading
// them) must agree bit for bit.
func FuzzScanBlocks(f *testing.F) {
	var engines [][2]*Engine // {built, round-tripped through WriteTo/ReadEngine}
	for _, shard := range [][2]int{{0, 0}, {0, 3}, {1, 3}, {2, 3}} {
		e, err := NewEngine(Config{Docs: 2000, VocabSize: 200, AvgDocLen: 20, Seed: 5,
			ShardIndex: shard[0], ShardCount: shard[1]})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		rt, err := ReadEngine(&buf)
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, [2]*Engine{e, rt})
	}

	// layout, topN, term count, terms (value-2), then block sizes (255 = Step).
	f.Add([]byte{0, 2, 1, 12, 64, 64, 64})                  // one term, serve-sized blocks
	f.Add([]byte{1, 2, 2, 14, 19, 1, 7, 255, 64, 0, 13})    // two terms on a shard, ragged blocks
	f.Add([]byte{0, 3, 2, 22, 17, 9, 9, 9, 9, 9, 9, 9, 9})  // two sparse terms, a page wider than the blocks
	f.Add([]byte{2, 2, 2, 4, 4, 30, 30})                    // the same term twice
	f.Add([]byte{3, 1, 3, 2, 9, 40, 5, 5, 5, 200})          // three terms, topN 1
	f.Add([]byte{0, 3, 3, 31, 16, 24, 20, 20, 255, 20, 20}) // three sparse terms, wide page
	f.Add([]byte{0, 2, 5, 0, 1, 203, 201, 150, 17})         // out-of-range and rare terms
	f.Add([]byte{0, 0, 2, 2, 3, 10})                        // topN 0
	f.Add([]byte{1, 2, 0, 8})                               // no terms

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pair := engines[next()%len(engines)]
		topN := []int{0, 1, 10, 64}[next()%4]
		var q Query
		for n := next() % 6; n > 0; n-- {
			// Terms range over [-2, vocab+2): both out-of-range sides.
			q.Terms = append(q.Terms, next()%(pair[0].Vocab()+4)-2)
		}
		blocks := data

		for _, and := range []bool{false, true} {
			var pages [2][]Result
			for side, e := range pair {
				var s blockScanner = e.NewScan(q, topN)
				search := e.Search
				if and {
					s, search = e.NewScanAnd(q, topN), e.SearchAnd
				}
				check := func() {
					t.Helper()
					n := s.Processed()
					var want []int
					if n > 0 { // a cap of 0 means "no cap" to Search
						var scored int
						want, scored = search(q, topN, n)
						if scored != n {
							t.Fatalf("and=%v: scan processed %d documents, Search capped there scored %d", and, n, scored)
						}
					}
					got := s.TopNInto(nil)
					if len(got) != len(want) {
						t.Fatalf("and=%v at %d docs: page %v, Search %v", and, n, got, want)
					}
					rs := s.TopNResultsInto(nil)
					for i := range want {
						if got[i] != want[i] || int(rs[i].Doc) != want[i] {
							t.Fatalf("and=%v at %d docs: page %v / %v, Search %v", and, n, got, rs, want)
						}
						if ref := refScore(e, q, rs[i].Doc); math.Float64bits(rs[i].Score) != math.Float64bits(ref) {
							t.Fatalf("and=%v at %d docs: doc %d scored %v, Search's expression gives %v", and, n, rs[i].Doc, rs[i].Score, ref)
						}
					}
				}
				check()
				for _, b := range blocks {
					k, n := int(b)%80, 0
					if b == 255 {
						k = 1
						if s.Step() {
							n = 1
						}
					} else {
						n = s.StepN(k)
					}
					if n < 0 || n > k {
						t.Fatalf("and=%v: StepN(%d) = %d", and, k, n)
					}
					check()
					if n < k {
						break
					}
				}
				// Drain: the exhausted scan is the precise page.
				for s.StepN(1000) == 1000 {
				}
				if s.StepN(1) != 0 || s.Step() {
					t.Fatalf("and=%v: exhausted scan scored another document", and)
				}
				_, all := search(q, topN, 0)
				if s.Processed() != all || (topN > 0 && !s.Exhausted()) {
					t.Fatalf("and=%v: drained scan processed %d of %d, exhausted=%v", and, s.Processed(), all, s.Exhausted())
				}
				check()
				pages[side] = s.TopNResultsInto(nil)
			}
			if len(pages[0]) != len(pages[1]) {
				t.Fatalf("and=%v: built engine pages %d results, round-tripped %d", and, len(pages[0]), len(pages[1]))
			}
			for i := range pages[0] {
				if pages[0][i].Doc != pages[1][i].Doc || math.Float64bits(pages[0][i].Score) != math.Float64bits(pages[1][i].Score) {
					t.Fatalf("and=%v: result %d differs after a ReadEngine round trip: %v vs %v", and, i, pages[0][i], pages[1][i])
				}
			}
		}
	})
}

package search

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refScore is the score Search gives doc for q, computed the way Search
// computes it — from the quality/docLen/avgLen/idf columns, one term at
// a time in query order — so the impact-table kernels are
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

// blockScanner is the scan surface the checks below read: Scan, which
// FuzzScanBlocks drives, and certify_test's reference wrappers of it.
type blockScanner interface {
	Step() bool
	StepN(int) int
	Processed() int
	Exhausted() bool
	Final() bool
	TopNInto([]int) []int
	TopNResultsInto([]Result) []Result
}

// finality holds a scan to its certificate: after every block, note
// calls Final, keeps the page the first time it holds and refuses a scan
// that was final and no longer is (the floor only rises and the bound
// only falls, and a page that changed cannot change back: ids only
// grow); drained then requires that page to be the drained scan's,
// document for document and score for score.
type finality struct {
	page      []Result
	at        int  // documents processed when the scan was first final
	final     bool // it has been
	certified bool // before it was exhausted
}

func (f *finality) note(s blockScanner) error {
	switch {
	case !s.Final():
		if f.final {
			return fmt.Errorf("final at %d documents, no longer final at %d", f.at, s.Processed())
		}
	case !f.final:
		f.page, f.at, f.final, f.certified = s.TopNResultsInto(nil), s.Processed(), true, !s.Exhausted()
	}
	return nil
}

func (f *finality) drained(s blockScanner) error {
	if !f.final {
		return nil
	}
	want := s.TopNResultsInto(nil)
	same := len(f.page) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = f.page[i].Doc == want[i].Doc && math.Float64bits(f.page[i].Score) == math.Float64bits(want[i].Score)
	}
	if !same {
		return fmt.Errorf("final at %d of %d documents with page %v, drained page %v", f.at, s.Processed(), f.page, want)
	}
	return nil
}

// checkAgainstSearch returns an error unless s, a scan of q on e, holds
// the page Search returns when capped at the same document count, every
// score bit-equal to refScore.
func checkAgainstSearch(e *Engine, s blockScanner, q Query, topN int) error {
	n := s.Processed()
	var want []int
	if n > 0 { // a cap of 0 means "no cap" to Search
		var scored int
		want, scored = e.Search(q, topN, n)
		if scored != n {
			return fmt.Errorf("scan processed %d documents, Search capped there scored %d", n, scored)
		}
	}
	got := s.TopNInto(nil)
	rs := s.TopNResultsInto(nil)
	if len(got) != len(want) || len(rs) != len(want) {
		return fmt.Errorf("at %d docs: page %v / %v, Search %v", n, got, rs, want)
	}
	for i := range want {
		if got[i] != want[i] || int(rs[i].Doc) != want[i] {
			return fmt.Errorf("at %d docs: page %v / %v, Search %v", n, got, rs, want)
		}
		if ref := refScore(e, q, rs[i].Doc); math.Float64bits(rs[i].Score) != math.Float64bits(ref) {
			return fmt.Errorf("at %d docs: doc %d scored %v, Search's expression gives %v", n, rs[i].Doc, rs[i].Score, ref)
		}
	}
	return nil
}

// tiedEngine is a hand-built corpus on which scores tie as heavily as
// they can: every document has the same quality and length, every
// posting the same tf, every term the same idf — a document's score is
// decided by how many query terms it holds and nothing else, so nearly
// every candidate ties with the page's floor and only the doc-id rule
// (the lower id wins) decides. The eight posting lists differ in length
// by two orders of magnitude and in where they end, so merges run out of
// lists mid-block, and term 7 matches nothing. The impact, 1.1, is no
// bfloat16: the per-block bound rounds it up past every tie, so what
// certifies here certifies on Final's per-list bound alone.
func tiedEngine() *Engine {
	const docs = 320
	e := &Engine{
		cfg:      Config{Docs: docs, VocabSize: 8, AvgDocLen: 10, StopTerms: 0, QualityWeight: 1},
		postings: make([][]Posting, 8),
		docLen:   make([]uint32, docs),
		quality:  make([]float64, docs),
		idf:      make([]float64, 8),
		avgLen:   10,
	}
	for d := range e.docLen {
		e.docLen[d], e.quality[d] = 10, 1
	}
	holds := []func(d int) bool{
		func(d int) bool { return true },
		func(d int) bool { return d%2 == 0 && d < 160 },
		func(d int) bool { return d < 41 },
		func(d int) bool { return d%7 == 3 },
		func(d int) bool { return d >= 310 && d%2 == 1 },
		func(d int) bool { return d%3 == 0 && d < 70 },
		func(d int) bool { return d == 159 },
		func(d int) bool { return false },
	}
	for t, in := range holds {
		e.idf[t] = 1.1
		for d := 0; d < docs; d++ {
			if in(d) {
				e.postings[t] = append(e.postings[t], Posting{Doc: uint32(d), TF: 1})
			}
		}
	}
	if err := e.deriveImpacts(); err != nil {
		panic(err)
	}
	return e
}

// windowEngine is a hand-built corpus laid out against the union window
// (windowIDs doc ids, 64 to a bitmap word), six windows deep. Terms 0–4
// end one window after another, so a scan of all five fills windows from
// five, four, three and two lists and finishes as a single list; each
// holds the first and last id of every window in its range (documents in
// every list of the query, postings at 2047 and 2048), term 1 sits on
// both sides of every word edge, term 5 has a gap of three windows and
// term 6 starts in the third. Quality, length, tf and idf all vary, so a
// sum taken in the wrong order or a slot left over from another query
// shows in a score's bits.
func windowEngine() *Engine {
	const docs = 6 * windowIDs
	e := &Engine{
		cfg:      Config{Docs: docs, VocabSize: 8, AvgDocLen: 9, StopTerms: 0, QualityWeight: 8},
		postings: make([][]Posting, 8),
		docLen:   make([]uint32, docs),
		quality:  make([]float64, docs),
		idf:      make([]float64, 8),
	}
	total := 0
	for d := range e.docLen {
		e.docLen[d] = uint32(5 + d%9)
		total += int(e.docLen[d])
		e.quality[d] = 8*(1-float64(d)/docs) + 0.01*float64(d%17)
	}
	e.avgLen = float64(total) / docs
	edge := func(d int) bool { return d%windowIDs == 0 || d%windowIDs == windowIDs-1 }
	holds := []func(d int) bool{
		func(d int) bool { return edge(d) || d%9 == 0 },
		func(d int) bool { return d < 4*windowIDs && (edge(d) || d%64 == 63 || d%64 == 0) },
		func(d int) bool { return d < 3*windowIDs && (edge(d) || d%7 == 1) },
		func(d int) bool { return d < 2*windowIDs && (edge(d) || d%11 == 0) },
		func(d int) bool { return d < windowIDs && (edge(d) || d%3 == 0) },
		func(d int) bool { return d == 5 || d == 9 || d > 3*windowIDs+100 && d%13 == 0 },
		func(d int) bool { return d > 2*windowIDs+17 && d%9 == 0 },
		func(d int) bool { return false },
	}
	for t, in := range holds {
		e.idf[t] = 0.7 + 0.3*float64(t)
		for d := 0; d < docs; d++ {
			if in(d) {
				e.postings[t] = append(e.postings[t], Posting{Doc: uint32(d), TF: uint16(1 + (d+t)%4)})
			}
		}
	}
	if err := e.deriveImpacts(); err != nil {
		panic(err)
	}
	return e
}

// TestScanFloorInvariant holds the floor test to its claim — a scan
// pushes exactly what push would have kept — where it is most exposed:
// on tiedEngine and windowEngine at every prefix length (blocks of one),
// on all three corpora across block, word and window boundaries, for one
// to five terms with lists that run out mid-scan (so windows filled from
// five lists give way to four, three, two and then a single list), for a
// page of one and a page wider than the match set. The same scans hold
// Final to its claim: a page certified before exhaustion is the drained
// page, bit for bit. On tiedEngine every document of query {0} scores
// exactly the per-list bound, so that query can only certify on a tie
// with the floor — which the later id loses — and only on that bound.
func TestScanFloorInvariant(t *testing.T) {
	generated, err := NewEngine(Config{Docs: 2000, VocabSize: 200, AvgDocLen: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		e       *Engine
		blocks  []int
		queries [][]int
		// lists: every count of live lists the disjunctive scans must have
		// started a shape with — a window filled from that many, scan1 for
		// one, none left for zero. The first two corpora fit in one window,
		// so their scans go from all of a query's lists straight to none.
		lists []int
		// certify: the query (an index into queries) that must certify
		// before exhaustion for some page size and block.
		certify int
	}{
		{"tied", tiedEngine(), []int{1, 7, 64, 256}, [][]int{{0}, {6}, {2, 0}, {1, 3}, {4, 2}, {5, 5}, {2, 1, 0}, {3, 5, 1}, {6, 4, 2}, {1, 7, 3}, {2, 5, 1, 3, 0}, {4, 6, 2, 5, 3}}, []int{0, 1, 2, 3, 5}, 0},
		{"generated", generated, []int{64, 256}, [][]int{{12}, {14, 19}, {150, 3}, {9, 40, 5}, {180, 2, 60}, {31, 16, 24, 3, 90}}, []int{0, 1, 2, 3, 5}, 1},
		{"windows", windowEngine(), []int{1, 65, windowIDs + 1}, [][]int{{1}, {6, 5}, {4, 3}, {5, 7, 2}, {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}}, []int{0, 1, 2, 3, 4, 5}, 4},
	} {
		shapes := map[int]bool{}
		certified := map[int]bool{}
		for qi, terms := range c.queries {
			q := Query{Terms: terms}
			_, matches := c.e.Search(q, 1, 0)
			for _, topN := range []int{1, 10, matches + 5} {
				for _, block := range c.blocks {
					if block == 1 && topN > 10 && matches > 400 {
						continue // ranking a page that wide at every prefix is cubic in the match set
					}
					scan := c.e.NewScan(q, topN)
					var f finality
					for n := block; n == block; {
						if scan.win.pending == 0 {
							shapes[len(scan.cursors)] = true
						}
						n = scan.StepN(block)
						err := checkAgainstSearch(c.e, scan, q, topN)
						if err == nil {
							err = f.note(scan)
						}
						if err != nil {
							t.Fatalf("%s: q=%v topN=%d block=%d: %v", c.name, terms, topN, block, err)
						}
					}
					if !scan.Exhausted() {
						t.Fatalf("%s: q=%v topN=%d block=%d: StepN came up short on a scan that is not exhausted", c.name, terms, topN, block)
					}
					if err := f.drained(scan); err != nil {
						t.Fatalf("%s: q=%v topN=%d block=%d: %v", c.name, terms, topN, block, err)
					}
					certified[qi] = certified[qi] || f.certified
					shapes[len(scan.cursors)] = true
				}
			}
		}
		for _, live := range c.lists {
			if !shapes[live] {
				t.Errorf("%s: no scan ever started a shape with %d live lists: compaction is not exercised", c.name, live)
			}
		}
		if !certified[c.certify] {
			t.Errorf("%s: q=%v never certified before exhaustion: the certificate is not exercised", c.name, c.queries[c.certify])
		}
	}
}

// edgeBlocks are the grants FuzzScanBlocks can ask for beyond its small
// ones: one document, either side of a bitmap word and of the window, a
// grant that ends mid-word well into a window, and several windows.
var edgeBlocks = [15]int{1, 63, 64, 65, 2047, 2048, 2049, 127, 1000, 5000, 62, 66, 2046, 2050, 4096}

// FuzzScanBlocks is the differential test of the block kernel, and it
// drives Scan only: whatever the query, page size, shard layout and
// sequence of block sizes, after every block the scan's page must be the
// page Search returns when capped at the same document count, with every
// score bit-equal to refScore; whenever Final holds after a block, that
// page must be the drained scan's, scores bit-equal; and whenever the
// joint reference (jointFinal) holds, Final holds too: the subset
// certificate never fires later than the bound it refines.
func FuzzScanBlocks(f *testing.F) {
	var engines []*Engine
	for _, shard := range [][2]int{{0, 0}, {0, 3}, {1, 3}, {2, 3}} {
		e, err := NewEngine(Config{Docs: 2000, VocabSize: 200, AvgDocLen: 20, Seed: 5,
			ShardIndex: shard[0], ShardCount: shard[1]})
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	engines = append(engines, tiedEngine(), windowEngine()) // layouts 4 and 5

	// layout, topN, term count, terms (value-2), then block sizes: a byte
	// under 240 is itself mod 80, 240–254 index edgeBlocks, 255 is Step.
	f.Add([]byte{0, 2, 1, 12, 64, 64, 64})                                             // one term, serve-sized blocks
	f.Add([]byte{1, 2, 2, 14, 19, 1, 7, 255, 64, 0, 13})                               // two terms on a shard, ragged blocks
	f.Add([]byte{0, 3, 2, 22, 17, 9, 9, 9, 9, 9, 9, 9, 9})                             // two sparse terms, a page wider than the blocks
	f.Add([]byte{2, 2, 2, 4, 4, 30, 30})                                               // the same term twice
	f.Add([]byte{3, 1, 3, 2, 9, 40, 5, 5, 5, 200})                                     // three terms, topN 1
	f.Add([]byte{0, 3, 3, 31, 16, 24, 20, 20, 255, 20, 20})                            // three sparse terms, wide page
	f.Add([]byte{0, 2, 5, 0, 1, 203, 201, 150, 17})                                    // out-of-range and rare terms
	f.Add([]byte{0, 0, 2, 2, 3, 10})                                                   // topN 0
	f.Add([]byte{1, 2, 0, 8})                                                          // no terms
	f.Add([]byte{4, 2, 3, 4, 3, 2, 9, 9, 255, 64, 40})                                 // the tied corpus: three lists, the shortest ends in the first block
	f.Add([]byte{4, 1, 2, 6, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5})                            // the tied corpus, topN 1: every later document ties with the floor
	f.Add([]byte{5, 2, 5, 2, 3, 4, 5, 6, 240, 242, 241, 246, 243, 244, 245, 247, 241}) // the window corpus, five lists: grants ending on, before and after word and window edges
	f.Add([]byte{5, 1, 3, 7, 8, 2, 244, 255, 246, 1, 245})                             // a three-window gap and a late start; a Step and a window and a bit after a grant one short of the window
	f.Add([]byte{5, 3, 2, 6, 5, 248, 100, 249})                                        // a grant ending mid-word, then several windows at once
	f.Add([]byte{0, 2, 3, 2, 3, 4, 245, 3, 245})                                       // three dense lists of a generated corpus in window-sized grants

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		e := engines[next()%len(engines)]
		topN := []int{0, 1, 10, 64}[next()%4]
		var q Query
		for n := next() % 6; n > 0; n-- {
			// Terms range over [-2, vocab+2): both out-of-range sides.
			q.Terms = append(q.Terms, next()%(e.Vocab()+4)-2)
		}

		s := e.NewScan(q, topN)
		var f finality
		check := func() {
			t.Helper()
			err := checkAgainstSearch(e, s, q, topN)
			if err == nil {
				err = f.note(s)
			}
			if err != nil {
				t.Fatal(err)
			}
			if jointFinal(s) && !s.Final() {
				t.Fatalf("at %d documents the joint bound certifies and Final does not", s.Processed())
			}
		}
		check()
		for _, b := range data {
			k, n := int(b)%80, 0
			if b == 255 {
				k = 1
				if s.Step() {
					n = 1
				}
			} else {
				if b >= 240 {
					k = edgeBlocks[b-240]
				}
				n = s.StepN(k)
			}
			if n < 0 || n > k {
				t.Fatalf("StepN(%d) = %d", k, n)
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
			t.Fatal("exhausted scan scored another document")
		}
		_, all := e.Search(q, topN, 0)
		if s.Processed() != all || (topN > 0 && !s.Exhausted()) {
			t.Fatalf("drained scan processed %d of %d, exhausted=%v", s.Processed(), all, s.Exhausted())
		}
		check()
		if err := f.drained(s); err != nil {
			t.Fatal(err)
		}
	})
}

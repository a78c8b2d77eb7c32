package search

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestPostingIsEightBytes: the impact index lives in what was Posting's
// padding, so a posting list costs what it did.
func TestPostingIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(Posting{}); n != 8 {
		t.Fatalf("Posting is %d bytes, want 8", n)
	}
}

// checkImpacts holds every posting's table entry to Search's expression
// over docLen/avgLen/idf, bit for bit, and every table to exactly the
// distinct (tf, length) pairs of its list, the tables filling one
// exactly sized array.
func checkImpacts(t *testing.T, name string, e *Engine) {
	t.Helper()
	if end := e.impAt[len(e.postings)]; end != len(e.imp) || end != cap(e.imp) {
		t.Fatalf("%s: the tables end at %d in an array of %d with room for %d", name, end, len(e.imp), cap(e.imp))
	}
	for term, ps := range e.postings {
		imp := e.table(term)
		type pair struct {
			tf     uint16
			length uint32
		}
		seen := map[pair]bool{}
		for _, p := range ps {
			seen[pair{p.TF, e.docLen[p.Doc]}] = true
			tf := float64(p.TF)
			norm := bm25K1 * (1 - bm25B + bm25B*float64(e.docLen[p.Doc])/e.avgLen)
			want := e.idf[term] * tf * (bm25K1 + 1) / (tf + norm)
			if got := imp[p.pair]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: term %d doc %d: table says %v, Search's expression %v", name, term, p.Doc, got, want)
			}
		}
		if len(seen) != len(imp) {
			t.Fatalf("%s: term %d has %d distinct pairs and a table of %d", name, term, len(seen), len(imp))
		}
	}
}

func TestImpactTablesMatchSearch(t *testing.T) {
	cfgs := map[string]Config{"20k": {Seed: 7}, "200k": {Seed: 7, Docs: 200000}}
	for i := 0; i < 3; i++ {
		cfgs[fmt.Sprintf("20k shard %d/3", i)] = Config{Seed: 7, ShardIndex: i, ShardCount: 3}
	}
	for name, cfg := range cfgs {
		if testing.Short() && cfg.Docs > 0 {
			continue
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkImpacts(t, name, e)
	}
	checkImpacts(t, "tied", tiedEngine())
	checkImpacts(t, "windows", windowEngine())
}

func TestNewEngineAvgDocLenLimit(t *testing.T) {
	e, err := NewEngine(Config{Docs: 10, VocabSize: 10, AvgDocLen: 256, Seed: 1})
	if err != nil {
		t.Fatalf("AvgDocLen 256 refused: %v", err)
	}
	checkImpacts(t, "AvgDocLen 256", e)
	if _, err := NewEngine(Config{Docs: 10, VocabSize: 10, AvgDocLen: 257, Seed: 1}); err == nil {
		t.Error("AvgDocLen 257 accepted: its lists could outgrow a 16-bit impact index")
	}
	if _, err := NewEngine(Config{Docs: 10, VocabSize: 1<<23 + 1, Seed: 1}); err == nil {
		t.Error("a vocabulary of 2^23+1 terms accepted: its terms outgrow the build's 23 bits")
	}
}

// handEngine is a corpus of the given lengths whose single term posts
// every document with the given tfs.
func handEngine(lengths []uint32, tfs []uint16) *Engine {
	e := &Engine{
		cfg:      Config{Docs: len(lengths), VocabSize: 1, AvgDocLen: 10, QualityWeight: 1},
		postings: make([][]Posting, 1),
		docLen:   lengths,
		quality:  make([]float64, len(lengths)),
		idf:      []float64{1.5},
		avgLen:   10,
	}
	for d, tf := range tfs {
		e.quality[d] = 1 - float64(d)/float64(len(lengths))
		e.postings[0] = append(e.postings[0], Posting{Doc: uint32(d), TF: tf})
	}
	return e
}

// deriveImpacts stamps each posting with a class for its document's
// length and builds the impact tables: NewEngine's last step, for the
// hand-built corpora here and in fuzz_test.go, whose lengths are not
// known as their lists are built. Classes are 16 bits: documents taking
// more than 1<<16 distinct lengths are refused, as is a posting of a
// document out of range.
func (e *Engine) deriveImpacts() error {
	class := make([]uint16, len(e.docLen))
	index := make(map[uint32]uint16)
	var lens []int
	for d, l := range e.docLen {
		c, ok := index[l]
		if !ok {
			if len(lens) == 1<<16 {
				return fmt.Errorf("more than %d distinct document lengths", 1<<16)
			}
			c = uint16(len(lens))
			index[l] = c
			lens = append(lens, int(l))
		}
		class[d] = c
	}
	maxTF := 0
	for _, ps := range e.postings {
		for i := range ps {
			if int(ps[i].Doc) >= len(class) {
				return fmt.Errorf("a posting of doc %d in a corpus of %d", ps[i].Doc, len(class))
			}
			ps[i].pair = class[ps[i].Doc]
			maxTF = max(maxTF, int(ps[i].TF))
		}
	}
	return e.buildImpacts(lens, maxTF, nil)
}

// checkServed holds a scan of the single term, stepped to exhaustion, to
// Search and the engine's tables to checkImpacts.
func checkServed(t *testing.T, name string, e *Engine) {
	t.Helper()
	checkImpacts(t, name, e)
	q := Query{Terms: []int{0}}
	s := e.NewScan(q, 10)
	for s.StepN(4096) == 4096 {
	}
	if err := checkAgainstSearch(e, s, q, 10); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestImpactsLargeTF: a posting with tf 65 535 is served exactly while
// the (tf, length) grid fits maxGrid, and refused past it.
func TestImpactsLargeTF(t *testing.T) {
	two := handEngine([]uint32{10, 12, 10}, []uint16{65535, 1, 3}) // 65 536 tfs × 2 lengths
	if err := two.deriveImpacts(); err != nil {
		t.Fatalf("two lengths: %v", err)
	}
	checkServed(t, "two lengths", two)

	three := handEngine([]uint32{10, 12, 9}, []uint16{65535, 1, 3})
	if err := three.deriveImpacts(); err == nil {
		t.Error("three lengths: a grid over maxGrid accepted")
	}
}

// TestImpactsNegativeIDF: a negative idf makes every impact of its term
// negative — outside the "impacts are ≥ 0" the certificate's bound
// rests on. Such a term bounds at +Inf: a scan with its list live never
// certifies before exhaustion, and beside a sound term every page that
// does certify is the drained one. The sound term alone certifies
// early, so the test is not vacuous.
func TestImpactsNegativeIDF(t *testing.T) {
	const neg, sound = 3, 8
	e, err := NewEngine(Config{Docs: 3000, VocabSize: 20, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.idf[neg] = -2.5
	if err := e.deriveImpacts(); err != nil {
		t.Fatalf("a negative idf refused: %v", err)
	}
	if !math.IsInf(e.maxImp[neg], 1) {
		t.Fatalf("term %d with idf -2.5 bounds at %v, want +Inf", neg, e.maxImp[neg])
	}
	for _, terms := range [][]int{{neg}, {sound, neg}, {neg, sound}, {sound}} {
		for _, topN := range []int{1, 10} {
			q := Query{Terms: terms}
			s := e.NewScan(q, topN)
			var f finality
			for n := 64; n == 64; {
				n = s.StepN(64)
				err := checkAgainstSearch(e, s, q, topN)
				if err == nil {
					err = f.note(s)
				}
				if err == nil {
					err = f.drained(s) // a page already certified is the page now
				}
				if err != nil {
					t.Fatalf("q=%v topN=%d: %v", terms, topN, err)
				}
			}
			if len(terms) == 1 && f.certified != (terms[0] == sound) {
				t.Errorf("q=%v topN=%d: certified before exhaustion = %v", terms, topN, f.certified)
			}
		}
	}
}

// TestImpactsDistinctPairLimit: a list with 1<<16 distinct (tf, length)
// pairs is served exactly, one with a pair more is refused.
func TestImpactsDistinctPairLimit(t *testing.T) {
	for _, docs := range []int{1 << 16, 1<<16 + 1} {
		lengths, tfs := make([]uint32, docs), make([]uint16, docs)
		for d := range lengths {
			lengths[d], tfs[d] = uint32(10+d>>16), uint16(d) // the last one's tf 0 again, at length 11
		}
		e := handEngine(lengths, tfs)
		err := e.deriveImpacts()
		if docs > 1<<16 {
			if err == nil {
				t.Errorf("%d distinct pairs accepted", docs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d distinct pairs: %v", docs, err)
		}
		checkServed(t, "65 536 pairs", e)
	}
}

// TestImpactsRefuseUnorderedPostings: a list out of ascending doc id is
// refused, since the scans' merge and doc-id tie rule rest on the order.
func TestImpactsRefuseUnorderedPostings(t *testing.T) {
	e := handEngine([]uint32{10, 12, 9}, []uint16{1, 2, 3})
	e.postings[0][0].Doc, e.postings[0][1].Doc = 1, 0
	if err := e.deriveImpacts(); err == nil {
		t.Error("unordered postings accepted")
	}
}

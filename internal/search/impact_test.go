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
	checkBlockTable(t, e)
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
// rests on — and a NaN idf makes them NaN. Such a term bounds at +Inf,
// globally and in every block it has a posting in (checkBlockTable): a
// scan with its list live never certifies before exhaustion, and beside
// a sound term every page that does certify is the drained one. The
// sound term alone certifies early, so the test is not vacuous.
func TestImpactsNegativeIDF(t *testing.T) {
	const neg, nan, sound = 3, 5, 8
	e := coldEngine(t, Config{Docs: 3000, VocabSize: 20, AvgDocLen: 10, Seed: 1}) // written below
	e.idf[neg], e.idf[nan] = -2.5, math.NaN()
	if err := e.deriveImpacts(); err != nil {
		t.Fatalf("a negative idf refused: %v", err)
	}
	for _, term := range []int{neg, nan} {
		if !math.IsInf(e.maxImp[term], 1) {
			t.Fatalf("term %d with idf %v bounds at %v, want +Inf", term, e.idf[term], e.maxImp[term])
		}
	}
	checkBlockTable(t, e)
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

// checkBlockTable holds every term's row of per-block maxima to its
// postings: each cell is the least bfloat16 at or above the largest
// impact in the block, 0 where the term has no posting and +Inf where an
// impact is negative or NaN; and the quality columns to the quality
// column.
func checkBlockTable(t *testing.T, e *Engine) {
	t.Helper()
	nblk := (len(e.quality) + blockIDs - 1) / blockIDs
	if len(e.qblk) != nblk || len(e.qmax) != nblk || len(e.blkImp) != nblk*len(e.postings) {
		t.Fatalf("%d blocks: qblk %d, qmax %d, table %d for %d terms", nblk, len(e.qblk), len(e.qmax), len(e.blkImp), len(e.postings))
	}
	for d, q := range e.quality {
		if b := d / blockIDs; q > e.qblk[b] || e.qblk[b] > e.qmax[b] || b > 0 && e.qmax[b] > e.qmax[b-1] {
			t.Fatalf("doc %d quality %v: block %d qblk %v, qmax %v", d, q, b, e.qblk[b], e.qmax[b])
		}
	}
	for term, ps := range e.postings {
		want := make([]float64, nblk)
		for _, p := range ps {
			v := e.table(term)[p.pair]
			if !(v >= 0) {
				v = math.Inf(1)
			}
			want[p.Doc/blockIDs] = max(want[p.Doc/blockIDs], v)
		}
		for b, got := range e.blocks(term) {
			if bf16(got) < want[b] || got > 0 && bf16(got-1) >= want[b] {
				t.Fatalf("term %d block %d: %v, not the least bfloat16 at or above %v", term, b, got, want[b])
			}
		}
	}
	for _, c := range []struct {
		x    float64
		want uint16
	}{{0, 0}, {1, 0x3f80}, {1 - 0x1p-30, 0x3f80}, {1 + 0x1p-30, 0x3f81}, {1 + 0x1p-8, 0x3f81}, {math.MaxFloat32, 0x7f80}, {math.MaxFloat64, 0x7f80}, {math.Inf(1), 0x7f80}} {
		if got := up16(c.x); got != c.want {
			t.Errorf("up16(%v) = %#x, want %#x", c.x, got, c.want)
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
// refused, since the scans' merge and doc-id tie rule rest on the order,
// and so is a posting past the corpus, which has no quality or block.
func TestImpactsRefuseUnorderedPostings(t *testing.T) {
	e := handEngine([]uint32{10, 12, 9}, []uint16{1, 2, 3})
	e.postings[0][0].Doc, e.postings[0][1].Doc = 1, 0
	if err := e.deriveImpacts(); err == nil {
		t.Error("unordered postings accepted")
	}
	past := handEngine([]uint32{10, 10, 10}, []uint16{1, 2, 3})
	past.postings[0][2].Doc = 3
	if err := past.buildImpacts([]int{10}, 3, nil); err == nil {
		t.Error("a posting past the corpus accepted")
	}
}

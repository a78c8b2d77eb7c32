package search

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
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
}

// allocated is the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// indexBytes serializes e.
func indexBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadEngineAllocatesWhatItReads: a header claiming two million
// documents and terms with nothing or a little behind it, and a small
// index cut short, fail on the short input having allocated under 1 MB.
func TestReadEngineAllocatesWhatItReads(t *testing.T) {
	hdr := append([]byte(nil), indexMagic[:]...)
	for _, v := range []uint32{2_000_000, 2_000_000, 60, 50} {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	for _, v := range []float64{16, 7, 60} { // quality weight, seed (any bits), avgLen
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(v))
	}
	small, err := NewEngine(Config{Docs: 200, VocabSize: 30, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	valid := indexBytes(t, small)
	for name, data := range map[string][]byte{
		"header only":         hdr,
		"header and lengths":  append(append([]byte(nil), hdr...), make([]byte, 4000)...),
		"truncated mid-index": valid[:len(valid)/2],
		"truncated near end":  valid[:len(valid)-3],
	} {
		var err error
		if a := allocated(func() { _, err = ReadEngine(bytes.NewReader(data)) }); a >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, a)
		}
		if !errors.Is(err, ErrBadIndex) {
			t.Errorf("%s: err = %v, want ErrBadIndex", name, err)
		}
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

// readBack round-trips e through WriteTo/ReadEngine, reporting the bytes
// ReadEngine allocated.
func readBack(t *testing.T, e *Engine) (*Engine, uint64, error) {
	t.Helper()
	data := indexBytes(t, e)
	var rt *Engine
	var err error
	a := allocated(func() { rt, err = ReadEngine(bytes.NewReader(data)) })
	return rt, a, err
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

// TestReadEngineLargeTF: a posting with tf 65 535 is served exactly
// while the (tf, length) grid fits maxGrid, and refused past it — in
// neither case by a large allocation.
func TestReadEngineLargeTF(t *testing.T) {
	two := handEngine([]uint32{10, 12, 10}, []uint16{65535, 1, 3}) // 65 536 tfs × 2 lengths
	rt, a, err := readBack(t, two)
	if err != nil {
		t.Fatalf("two lengths: %v", err)
	}
	if a >= 1<<20 {
		t.Errorf("two lengths: allocated %d bytes", a)
	}
	checkServed(t, "two lengths", rt)

	three := handEngine([]uint32{10, 12, 9}, []uint16{65535, 1, 3})
	if _, a, err := readBack(t, three); !errors.Is(err, ErrBadIndex) || a >= 1<<20 {
		t.Errorf("three lengths: err = %v after %d bytes, want ErrBadIndex under 1 MB", err, a)
	}
}

// TestReadEngineNegativeIDF: ReadEngine takes any finite idf, and a
// negative one makes every impact of its term negative — outside the
// "impacts are ≥ 0" the certificate's bound rests on. Such a term bounds
// at +Inf: a scan with its list live never certifies before exhaustion,
// and beside a sound term every page that does certify is the drained
// one. The sound term alone certifies early, so the test is not vacuous.
func TestReadEngineNegativeIDF(t *testing.T) {
	const docs, vocab, neg, sound = 3000, 20, 3, 8
	orig, err := NewEngine(Config{Docs: docs, VocabSize: vocab, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := indexBytes(t, orig)
	_, _, _, idf := indexFloatOffsets(docs, vocab)
	binary.LittleEndian.PutUint64(data[idf+8*neg:], math.Float64bits(-2.5))
	e, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
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

// TestReadEngineDistinctPairLimit: a list with 1<<16 distinct (tf,
// length) pairs is served exactly, one with a pair more is refused.
func TestReadEngineDistinctPairLimit(t *testing.T) {
	for _, docs := range []int{1 << 16, 1<<16 + 1} {
		lengths, tfs := make([]uint32, docs), make([]uint16, docs)
		for d := range lengths {
			lengths[d], tfs[d] = uint32(10+d>>16), uint16(d) // the last one's tf 0 again, at length 11
		}
		rt, _, err := readBack(t, handEngine(lengths, tfs))
		if docs > 1<<16 {
			if !errors.Is(err, ErrBadIndex) {
				t.Errorf("%d distinct pairs: err = %v, want ErrBadIndex", docs, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d distinct pairs: %v", docs, err)
		}
		checkServed(t, "65 536 pairs", rt)
	}
}

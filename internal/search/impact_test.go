package search

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
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

// checkBlockTable holds every term's row of per-block cells to its
// postings, and each group's cell to its blocks': each cell's high half is the least bfloat16 at or above the
// largest impact in the block, 0 where the term has no posting and +Inf
// where an impact is negative or NaN; its low half, the gain, leaves
// every posting's quality + impact at or below qblk + hi − gain in exact
// arithmetic (so qblk − gain is the block's best quality + impact less
// hi, rounded toward +∞), and is +Inf where the term has no posting; and
// the quality columns to the quality column. It returns how many cells
// hold a negative row, qblk − gain < 0.
func checkBlockTable(t *testing.T, e *Engine) (negative int) {
	t.Helper()
	nblk := (len(e.quality) + blockIDs - 1) / blockIDs
	ngrp := (nblk + groupBlocks - 1) / groupBlocks
	if len(e.qblk) != nblk || len(e.qmax) != nblk || len(e.qgrp) != ngrp || len(e.blkImp) != (nblk+ngrp)*len(e.postings) {
		t.Fatalf("%d blocks: qblk %d, qmax %d, qgrp %d, table %d for %d terms", nblk, len(e.qblk), len(e.qmax), len(e.qgrp), len(e.blkImp), len(e.postings))
	}
	for b, q := range e.qblk {
		if g := b / groupBlocks; !(q <= e.qgrp[g]) || b%groupBlocks == 0 && e.qgrp[g] != slices.Max(e.qblk[b:min(b+groupBlocks, nblk)]) {
			t.Fatalf("block %d qblk %v, its group's qgrp %v", b, q, e.qgrp[g])
		}
	}
	for d, q := range e.quality {
		if b := d / blockIDs; q > e.qblk[b] || e.qblk[b] > e.qmax[b] || b > 0 && e.qmax[b] > e.qmax[b-1] || math.Abs(q) > e.qabs {
			t.Fatalf("doc %d quality %v: block %d qblk %v, qmax %v, qabs %v", d, q, b, e.qblk[b], e.qmax[b], e.qabs)
		}
	}
	for term, ps := range e.postings {
		want, held := make([]float64, nblk), make([]bool, nblk)
		for _, p := range ps {
			v := e.table(term)[p.pair]
			if !(v >= 0) {
				v = math.Inf(1)
			}
			want[p.Doc/blockIDs], held[p.Doc/blockIDs] = max(want[p.Doc/blockIDs], v), true
		}
		row := e.blocks(term)
		for g, cell := range row[nblk:] {
			hi, gain := uint32(0), uint32(noPosting)
			for _, c := range row[g*groupBlocks : min((g+1)*groupBlocks, nblk)] {
				hi, gain = max(hi, c>>16), min(gain, c&0xffff)
			}
			if cell != hi<<16|gain {
				t.Fatalf("term %d group %d: cell %#x, its blocks' largest hi %#x and least gain %#x", term, g, cell, hi, gain)
			}
		}
		for b, cell := range row[:nblk] {
			hi, gain := uint16(cell>>16), uint16(cell)
			if bf16(hi) < want[b] || hi > 0 && bf16(hi-1) >= want[b] {
				t.Fatalf("term %d block %d: %#x, not the least bfloat16 at or above %v", term, b, hi, want[b])
			}
			if !held[b] && cell != noPosting {
				t.Fatalf("term %d block %d: no posting, cell %#x", term, b, cell)
			}
			if held[b] && math.IsInf(bf16(gain), 1) {
				t.Fatalf("term %d block %d: a posting and a gain of +Inf", term, b)
			}
			if held[b] && !math.IsInf(bf16(hi), 1) && e.qblk[b]-bf16(gain) < 0 {
				negative++
			}
		}
		for _, p := range ps {
			b := p.Doc / blockIDs
			hi, gain := bf16(uint16(row[b]>>16)), bf16(uint16(row[b]))
			if math.IsInf(hi, 1) || math.IsNaN(e.qblk[b]) {
				continue // no bound
			}
			got, bound := exactSum(e.quality[p.Doc], e.table(term)[p.pair]), exactSum(e.qblk[b], hi, -gain)
			if got.Cmp(bound) > 0 {
				t.Fatalf("term %d doc %d: quality %v + impact %v over the block's qblk %v + %v − gain %v",
					term, p.Doc, e.quality[p.Doc], e.table(term)[p.pair], e.qblk[b], hi, gain)
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
	for _, c := range []struct {
		x    float64
		want uint16
	}{{math.NaN(), 0}, {-1, 0}, {0, 0}, {1, 0x3f80}, {1 - 0x1p-30, 0x3f7f}, {1 + 0x1p-30, 0x3f80}, {1 + 0x1p-7 - 0x1p-40, 0x3f80}, {math.MaxFloat32, 0x7f7f}, {math.Inf(1), 0x7f7f}} {
		if got := down16(c.x); got != c.want {
			t.Errorf("down16(%v) = %#x, want %#x", c.x, got, c.want)
		}
	}
	return negative
}

// exactSum is the sum of xs in exact arithmetic (2200 bits hold any sum
// of a few float64s).
func exactSum(xs ...float64) *big.Float {
	sum := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(2200).SetFloat64(x))
	}
	return sum
}

// TestCellRoundsTowardNoGain: a cell whose sums both round toward a
// larger gain — quality 1.5 + impact 2^-53 − 2^-62 rounds down to 1.5,
// qblk 2 − 2^-52 + hi 2^-53 rounds up to 2 — would store a gain of 0.5,
// above the exact qblk + hi − (quality + impact), without putCell's
// slack.
func TestCellRoundsTowardNoGain(t *testing.T) {
	q, v, qblk := 1.5, 0x1p-53-0x1p-62, 2-0x1p-52
	row := make([]uint32, 2)
	putCell(row, 1, 0, qblk, v, q+v)
	hi, gain := bf16(uint16(row[0]>>16)), bf16(uint16(row[0]))
	if exactSum(q, v).Cmp(exactSum(qblk, hi, -gain)) > 0 {
		t.Fatalf("quality %v + impact %v over qblk %v + hi %v − gain %v", q, v, qblk, hi, gain)
	}
}

// TestJointMarginCoversSummationOrder holds marginOf to its claim where
// nothing else absorbs the rounding: a document of quality q holding k
// of n live terms, each impact a bfloat16 (so hi is exact) and each of
// the k its list's best quality + impact in the block, whose best
// quality is q + 0.5 + 2^-47 — every such gain is 0.5 and the exact
// bound exceeds the exact score by 2^-47, less than the rounding of a
// long sum from a q with a full mantissa. The score, summed as Search
// sums it, must not beat the bound of the k lists, summed in another
// order — the order of their gains, as a subset bound's prefix is, among
// them — with the margin of all n.
func TestJointMarginCoversSummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200000; trial++ {
		q := 1 + rng.Float64()/2
		qblk := q + 0.5 + 0x1p-47
		n := 2 + rng.Intn(60)
		imp := make([]float64, n)
		total := qblk
		for i := range imp {
			imp[i] = bf16(up16(4 * rng.Float64()))
			total += imp[i]
		}
		row := make([]uint32, 2)
		putCell(row, 1, 0, qblk, imp[0], q+imp[0])
		gain := uint16(row[0])
		if bf16(gain) != 0.5 {
			t.Fatalf("gain %v, want 0.5", bf16(gain))
		}
		k := n // every live list, then a random subset of them
		if trial%2 == 1 {
			k = 1 + rng.Intn(n)
		}
		held := imp[:k]
		score := q
		for _, v := range held {
			score += v
		}
		rng.Shuffle(k, func(i, j int) { held[i], held[j] = held[j], held[i] })
		bound := qblk
		for _, v := range held {
			bound += v
		}
		if j := joint(bound, gain, marginOf(n, total)); beats(score, j) {
			t.Fatalf("%d of %d terms: score %v beats the bound %v", k, n, score, j)
		}
	}
}

// colQuality is the quality column of column col of the rows of cells:
// qblk of a block, qgrp of a group past the blocks.
func colQuality(e *Engine, col int) float64 {
	if col < len(e.qblk) {
		return e.qblk[col]
	}
	return e.qgrp[col-len(e.qblk)]
}

// jointBound is the joint bound on a document no list has reached in block
// b, or in group b − len(qblk) when b is past the blocks, live the terms
// whose lists are: Final's sum and least gain, read term by term.
func jointBound(e *Engine, live []int, b int) float64 {
	bound, gain, total := colQuality(e, b), uint16(noPosting), e.qabs
	for _, term := range live {
		cell := e.blocks(term)[b]
		bound += bf16(uint16(cell >> 16))
		gain = min(gain, uint16(cell))
		total += e.maxImp[term]
	}
	return joint(bound, gain, marginOf(len(live), total))
}

// TestJointBlockBound holds the block table and Final's joint bound to
// their claim over random small engines: every posting's quality +
// impact is within its block's cell (checkBlockTable, in exact
// arithmetic), and every document scores, as Search scores it, at most
// the joint bound of its block, and that at most its group's, for every
// set of live terms that holds it — each nonempty subset of its terms in
// a random order, alone and with a term it lacks. Half the engines carry
// qualities shifted below zero, so negative rows (qblk − gain < 0) occur
// and must round toward +∞.
func TestJointBlockBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negative := 0
	for round := 0; round < 8; round++ {
		e := coldEngine(t, Config{Docs: 1200 + rng.Intn(4000), VocabSize: 10, StopTerms: 1, AvgDocLen: 4 + rng.Intn(6), Seed: rng.Int63()})
		if round%2 == 1 { // written below
			for d := range e.quality {
				e.quality[d] = e.quality[d]*rng.Float64() - 20*rng.Float64()
			}
			if err := e.deriveImpacts(); err != nil {
				t.Fatal(err)
			}
		}
		negative += checkBlockTable(t, e)
		holds := make([][]int, len(e.quality)) // doc -> its terms
		for term, ps := range e.postings {
			for _, p := range ps {
				holds[p.Doc] = append(holds[p.Doc], term)
			}
		}
		for d, terms := range holds {
			for set := 1; set < 1<<len(terms); set++ {
				var live []int
				for i, term := range terms {
					if set&(1<<i) != 0 {
						live = append(live, term)
					}
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				for _, extra := range []int{-1, rng.Intn(len(e.postings))} {
					q := live
					if extra >= 0 && !slices.Contains(terms, extra) {
						q = append(slices.Clip(live), extra)
					}
					b := d / blockIDs
					score, bound := refScore(e, Query{Terms: q}, uint32(d)), jointBound(e, q, b)
					if group := jointBound(e, q, len(e.qblk)+b/groupBlocks); beats(score, bound) || beats(bound, group) {
						t.Fatalf("round %d doc %d live %v: scores %v, its block's joint bound %v, its group's %v", round, d, q, score, bound, group)
					}
				}
			}
		}
	}
	if negative == 0 {
		t.Error("no negative row: their rounding is not exercised")
	}
}

// subsetBound is the value whose beating the floor subsetBeats tests:
// the largest, over the scan's live lists t with a posting in column col
// of their rows of cells, of q plus the hi of every live list whose gain
// there is at most t's, less t's gain (joint); −Inf where none has one.
func subsetBound(s *Scan, q float64, col int, margin float64) float64 {
	best := math.Inf(-1)
	for _, c := range s.cursors {
		if gain := uint16(c.bm[col]); gain != noPosting {
			best = max(best, joint(s.sumTo(q, col, gain), gain, margin))
		}
	}
	return best
}

// TestSubsetBlockBound holds Final's subset bound to its claim over
// random small engines, as TestJointBlockBound holds the joint bound:
// for every document and every set of live terms that holds it — each
// nonempty subset of its terms in a random order, alone and with a term
// it lacks — in its block's and its group's column, (1) in exact
// arithmetic its quality + impacts are at most the column's quality plus
// the hi of the terms it holds less the largest of their gains; (2) its
// score, as Search scores it, does not beat the subset bound, which is at
// least the bound of exactly its terms, summed in Search's order less
// their largest gain; (3) the subset bound does not exceed the joint
// bound; (4) subsetBeats holds against a floor just under the bound and
// not against the bound. Half the engines carry qualities shifted below
// zero, so negative rows (qblk − gain < 0) occur.
func TestSubsetBlockBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	negative, tighter := 0, 0
	s := new(Scan)
	for round := 0; round < 8; round++ {
		e := coldEngine(t, Config{Docs: 1200 + rng.Intn(4000), VocabSize: 10, StopTerms: 1, AvgDocLen: 4 + rng.Intn(6), Seed: rng.Int63()})
		if round%2 == 1 { // written below
			for d := range e.quality {
				e.quality[d] = e.quality[d]*rng.Float64() - 20*rng.Float64()
			}
			if err := e.deriveImpacts(); err != nil {
				t.Fatal(err)
			}
		}
		negative += checkBlockTable(t, e)
		holds, imps := make([][]int, len(e.quality)), make([][]float64, len(e.quality)) // doc -> its terms, their impacts
		for term, ps := range e.postings {
			for _, p := range ps {
				holds[p.Doc] = append(holds[p.Doc], term)
				imps[p.Doc] = append(imps[p.Doc], e.table(term)[p.pair])
			}
		}
		for d, terms := range holds {
			b := d / blockIDs
			for set := 1; set < 1<<len(terms); set++ {
				var live []int
				exact := []float64{e.quality[d]}
				for i, term := range terms {
					if set&(1<<i) != 0 {
						live = append(live, term)
						exact = append(exact, imps[d][i])
					}
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				cols := []int{b, len(e.qblk) + b/groupBlocks}
				// The bound of exactly the live terms the document holds, in
				// query order (live's), and their largest gain, per column.
				var own [2]float64
				var gain [2]uint16
				for i, col := range cols {
					own[i] = colQuality(e, col)
					mine := exactSum(own[i])
					for _, term := range live {
						cell := e.blocks(term)[col]
						own[i] += bf16(uint16(cell >> 16))
						mine.Add(mine, exactSum(bf16(uint16(cell>>16))))
						gain[i] = max(gain[i], uint16(cell))
					}
					mine.Sub(mine, exactSum(bf16(gain[i])))
					if !math.IsInf(own[i], 1) && exactSum(exact...).Cmp(mine) > 0 {
						t.Fatalf("round %d doc %d live %v column %d: quality + impacts %v over the column's %v + the terms' hi − their largest gain %v in exact arithmetic",
							round, d, live, col, exact, colQuality(e, col), bf16(gain[i]))
					}
				}
				for _, extra := range []int{-1, rng.Intn(len(e.postings))} {
					q := live
					if extra >= 0 && !slices.Contains(terms, extra) {
						q = append(slices.Clip(live), extra)
					}
					s.Reset(e, Query{Terms: q}, 1)
					total := e.qabs
					for _, c := range s.cursors {
						total += c.max
					}
					margin := marginOf(len(s.cursors), total)
					score := refScore(e, Query{Terms: q}, uint32(d))
					for i, col := range cols {
						qcol := colQuality(e, col)
						sum, least := s.sumAt(qcol, col)
						bound, jb, mine := subsetBound(s, qcol, col, margin), joint(sum, least, margin), joint(own[i], gain[i], margin)
						switch {
						case beats(score, bound) || beats(mine, bound):
							t.Fatalf("round %d doc %d live %v column %d: scores %v, the bound of its own terms is %v, the subset bound %v",
								round, d, q, col, score, mine, bound)
						case beats(bound, jb):
							t.Fatalf("round %d doc %d live %v column %d: subset bound %v over the joint bound %v", round, d, q, col, bound, jb)
						case s.subsetBeats(qcol, col, margin, bound) || !s.subsetBeats(qcol, col, margin, math.Nextafter(bound, math.Inf(-1))):
							t.Fatalf("round %d doc %d live %v column %d: subsetBeats disagrees with its bound %v", round, d, q, col, bound)
						}
						if bound < jb {
							tighter++
						}
					}
				}
			}
		}
	}
	if negative == 0 || tighter == 0 {
		t.Errorf("%d negative rows, %d subset bounds below the joint bound: a case is not exercised", negative, tighter)
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

// Package search implements a small ranked-retrieval web-search back-end
// standing in for the paper's Bing Search substrate: an inverted index
// over a synthetic corpus, BM25+static-rank scoring, and top-N retrieval
// with an optional cap M on the number of matching documents processed per
// query — exactly the approximation knob the paper evaluates ("limit the
// maximum number of documents (M) that each query must process").
//
// The production index and query logs are proprietary, so the corpus is
// synthetic: term occurrences follow a Zipf distribution, documents carry
// a static quality prior, and document ids are assigned in descending
// quality order — the standard static-rank index layout that makes
// early termination meaningful (the best documents tend to appear early in
// every posting list, and the dynamic BM25 component occasionally promotes
// a late document into the top N, which is what the QoS loss measures).
package search

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"weak"

	"green/internal/workload"
)

// Config describes a synthetic corpus and engine.
type Config struct {
	// Docs is the corpus size.
	Docs int
	// VocabSize is the number of distinct terms.
	VocabSize int
	// AvgDocLen is the mean document length in terms.
	AvgDocLen int
	// QualityWeight scales the static quality prior relative to the BM25
	// dynamic score; larger values make early termination safer. Zero
	// selects the tuned default (12.0).
	QualityWeight float64
	// StopTerms is the number of head (most frequent) vocabulary terms
	// excluded from generated queries, modeling stopword removal: without
	// it every query matches nearly the whole corpus. Zero selects the
	// default (50).
	StopTerms int
	// Seed makes corpus generation deterministic.
	Seed int64
	// ShardIndex/ShardCount partition the corpus across worker replicas:
	// the engine generates the full corpus deterministically, then keeps
	// postings only for documents with doc % ShardCount == ShardIndex.
	// Global doc ids, document statistics (lengths, quality priors), and
	// collection statistics (avgLen, IDF) are all computed over the full
	// corpus and preserved, so every shard scores a document exactly as
	// the unsharded engine would — the union of ShardCount shards'
	// uncapped results merges doc-for-doc into the unsharded result
	// (sharding_test.go). ShardCount zero or one means unsharded.
	ShardIndex, ShardCount int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Docs == 0 {
		out.Docs = 20000
	}
	if out.VocabSize == 0 {
		out.VocabSize = 2000
	}
	if out.AvgDocLen == 0 {
		out.AvgDocLen = 60
	}
	if out.QualityWeight == 0 {
		out.QualityWeight = 16.0
	}
	if out.StopTerms == 0 {
		out.StopTerms = 50
	}
	return out
}

// tfBits holds any tf NewEngine draws: at most the longest document,
// 383 terms.
const tfBits = 9

// Posting is one document entry in a term's posting list.
type Posting struct {
	Doc uint32
	TF  uint16
	// pair indexes the term's impact table (buildImpacts), in what was
	// the struct's padding.
	pair uint16
}

// Engine is the search back-end.
type Engine struct {
	cfg      Config
	postings [][]Posting // term -> postings sorted by doc id, end to end in one array
	docLen   []uint32
	quality  []float64 // per-doc static prior, decreasing in doc id
	avgLen   float64
	idf      []float64
	// imp holds the terms' impact tables end to end, term t's at
	// imp[impAt[t]:impAt[t+1]] (buildImpacts): a scan
	// scores a posting of term t as quality[p.Doc] + table(t)[p.pair].
	imp   []float64
	impAt []int
	// Scan.Final's bounds: each term's largest impact (+Inf if one is < 0
	// or NaN); the largest |quality|; per blockIDs-id block, the largest
	// quality in it (qblk) and at or after it (qmax), and per group of
	// groupBlocks blocks the largest in it (qgrp); and each term's cells
	// (blocks), term t's row at blkImp[t*n:][:n], n = len(qblk)+len(qgrp).
	maxImp, qmax, qblk, qgrp []float64
	qabs                     float64
	blkImp                   []uint32
}

// engines holds, weakly, the engine NewEngine last built for each
// normalised Config: an entry never keeps its engine alive.
var engines = struct {
	sync.Mutex
	m map[Config]weak.Pointer[Engine]
}{m: map[Config]weak.Pointer[Engine]{}}

// NewEngine returns the corpus and inverted index cfg describes. An
// engine is immutable once built, so while one built for the same
// normalised Config is live, NewEngine returns it instead of a copy.
func NewEngine(cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	if c.Docs < 10 || c.VocabSize < 10 || c.AvgDocLen < 1 {
		return nil, errors.New("search: corpus too small")
	}
	if math.IsNaN(c.QualityWeight) || math.IsInf(c.QualityWeight, 0) {
		return nil, fmt.Errorf("search: quality weight %v not finite", c.QualityWeight)
	}
	// Lengths run over A = AvgDocLen values from A/2 and a tf from 1 to
	// the length, so a list can hold A·(A/2) + A(A−1)/2 distinct (tf,
	// length) pairs: 65 408 at A = 256, 65 792 at 257 — one more than a
	// posting's 16-bit impact index reaches.
	if c.AvgDocLen > 256 {
		return nil, fmt.Errorf("search: average document length %d over 256", c.AvgDocLen)
	}
	// Pass one packs a term and a tf into 32 bits.
	if c.VocabSize > 1<<(32-tfBits) {
		return nil, fmt.Errorf("search: vocabulary of %d terms over %d", c.VocabSize, 1<<(32-tfBits))
	}
	if c.ShardCount > 1 && (c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount) {
		return nil, fmt.Errorf("search: shard index %d out of range [0, %d)", c.ShardIndex, c.ShardCount)
	}
	engines.Lock()
	e := engines.m[c].Value()
	engines.Unlock()
	if e != nil {
		return e, nil
	}
	e, err := buildEngine(c) // outside the lock: no build waits on another
	if err != nil {
		return nil, err
	}
	engines.Lock()
	defer engines.Unlock()
	if live := engines.m[c].Value(); live != nil { // a racing build stored first
		return live, nil
	}
	maps.DeleteFunc(engines.m, func(_ Config, w weak.Pointer[Engine]) bool { return w.Value() == nil })
	engines.m[c] = weak.Make(e)
	return e, nil
}

// buildEngine builds the engine of a Config NewEngine has validated.
func buildEngine(c Config) (*Engine, error) {
	e := &Engine{
		cfg:      c,
		postings: make([][]Posting, c.VocabSize),
		docLen:   make([]uint32, c.Docs),
		quality:  make([]float64, c.Docs),
	}
	termZipf, err := workload.NewZipf(workload.Split(c.Seed, 1), 1.4, uint64(c.VocabSize))
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	lenRng := workload.NewRand(workload.Split(c.Seed, 2))
	qualRng := workload.NewRand(workload.Split(c.Seed, 3))

	// Doc ids are assigned in descending static quality: quality decays
	// linearly with id plus light noise, mimicking a static-rank-sorted
	// index.
	for d := 0; d < c.Docs; d++ {
		frac := float64(d) / float64(c.Docs)
		e.quality[d] = c.QualityWeight * ((1 - frac) + 0.05*qualRng.NormFloat64())
	}

	// Lengths come from their own stream, so they are all drawn first:
	// their sum bounds the draws below.
	draws, lo := 0, c.AvgDocLen/2
	for d := range e.docLen {
		n := lo + lenRng.Intn(c.AvgDocLen) // ~uniform around avg
		e.docLen[d] = uint32(n)
		draws += n
	}
	e.avgLen = float64(draws) / float64(c.Docs)
	keep, step := 0, 1
	if c.ShardCount > 1 {
		keep, step = c.ShardIndex, c.ShardCount
	}

	// Pass one draws every document's terms in order, counting its term
	// frequencies in a dense array over the vocabulary (touched lists the
	// terms to visit and zero again; a map here was a fifth of the
	// build). Every draw is written to touched and kept there only if it
	// is its term's first in the document, without a branch: one taken
	// half the time at random was a quarter of the build. A kept
	// document's (term, tf) entries go to one flat slice in first-draw
	// order, term<<tfBits | tf; df counts each term's documents over the
	// whole corpus, for IDF, and kept over the documents this engine
	// keeps. Half the kept draws is room enough: the default corpus has
	// 0.40 entries per draw. The slice is as live as the arena below
	// while pass two runs, so it is kept to 32 bits an entry; spent, it
	// holds buildImpacts' pairs, no more than the postings.
	counts := make([]int, 2*c.VocabSize)
	df, kept := counts[:c.VocabSize:c.VocabSize], counts[c.VocabSize:]
	entries := make([]uint32, 0, draws/step/2)
	tfs := make([]uint16, c.VocabSize)
	touched := make([]uint32, c.AvgDocLen+lo) // the longest document
	for d, n := range e.docLen {
		nt := 0
		for i := uint32(0); i < n; i++ {
			term := uint32(termZipf.Next())
			touched[nt] = term
			first := 0
			if tfs[term] == 0 {
				first = 1
			}
			nt += first
			tfs[term]++
		}
		mine := d%step == keep
		for _, term := range touched[:nt] {
			df[term]++
			if mine {
				kept[term]++
				entries = append(entries, term<<tfBits|uint32(tfs[term]))
			}
			tfs[term] = 0
		}
	}
	e.idf = make([]float64, c.VocabSize)
	for t, n := range df {
		f := float64(n)
		e.idf[t] = math.Log(1 + (float64(c.Docs)-f+0.5)/(f+0.5))
	}

	// Pass two lays the kept postings into one exactly sized arena, term
	// after term. Each list starts as an empty subslice capped at its own
	// end, its length the cursor an append advances in place: no list
	// grows, and none can reach the next. A document's entries end where
	// its tfs reach its length. Each posting is stamped with its
	// document's length class, n - lo, so buildImpacts never looks a
	// length up.
	arena := make([]Posting, len(entries))
	for t, n := range kept {
		e.postings[t], arena = arena[:0:n], arena[n:]
	}
	next := entries
	for d := keep; d < c.Docs; d += step {
		n := e.docLen[d]
		for left := n; left > 0; next = next[1:] {
			term, tf := next[0]>>tfBits, next[0]&(1<<tfBits-1)
			e.postings[term] = append(e.postings[term], Posting{Doc: uint32(d), TF: uint16(tf), pair: uint16(int(n) - lo)})
			left -= tf
		}
	}
	lens := make([]int, c.AvgDocLen)
	for i := range lens {
		lens[i] = lo + i
	}
	if err := e.buildImpacts(lens, lo+c.AvgDocLen-1, entries); err != nil { // tf <= the longest length
		return nil, fmt.Errorf("search: %w", err)
	}
	return e, nil
}

// Shard reports the engine's corpus partition; count <= 1 means the
// engine holds the whole corpus.
func (e *Engine) Shard() (index, count int) {
	return e.cfg.ShardIndex, e.cfg.ShardCount
}

// Docs returns the corpus size.
func (e *Engine) Docs() int { return e.cfg.Docs }

// Vocab returns the vocabulary size.
func (e *Engine) Vocab() int { return e.cfg.VocabSize }

// StopTerms returns the number of head terms excluded from queries.
func (e *Engine) StopTerms() int { return e.cfg.StopTerms }

// DocFreq returns the document frequency of a term.
func (e *Engine) DocFreq(term int) int {
	if term < 0 || term >= len(e.postings) {
		return 0
	}
	return len(e.postings[term])
}

// Query is one search request.
type Query struct {
	ID    int
	Terms []int
}

// GenerateQueries derives a deterministic query log whose term choices
// follow the corpus Zipf distribution (1–3 terms per query) over the
// post-stopword vocabulary, standing in for the production query logs.
// A negative n is refused.
func (e *Engine) GenerateQueries(seed int64, n int) ([]Query, error) {
	if n < 0 {
		return nil, fmt.Errorf("search: query count %d is negative", n)
	}
	vocab := e.cfg.VocabSize - e.cfg.StopTerms
	if vocab < 10 {
		vocab = e.cfg.VocabSize
	}
	z, err := workload.NewZipf(workload.Split(seed, 10), 1.8, uint64(vocab))
	if err != nil {
		return nil, err
	}
	rng := workload.NewRand(workload.Split(seed, 11))
	qs := make([]Query, n)
	for i := range qs {
		k := 1 + rng.Intn(3)
		terms := make([]int, 0, k)
		for len(terms) < k {
			t := e.cfg.VocabSize - vocab + int(z.Next())
			dup := false
			for _, u := range terms {
				if u == t {
					dup = true
					break
				}
			}
			if !dup {
				terms = append(terms, t)
			}
		}
		qs[i] = Query{ID: i, Terms: terms}
	}
	return qs, nil
}

// bm25 parameters.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Result is one retrieved document.
type Result struct {
	Doc   uint32
	Score float64
}

// Search executes the query and returns the top-N document ids in rank
// order plus the number of matching documents actually scored (the work
// performed). maxDocs caps the matching documents processed; maxDocs <= 0
// means no cap (the precise version). Matching documents are processed in
// doc-id order — i.e. descending static rank — so the cap keeps the
// best-static-rank candidates, as a real engine's early termination does.
func (e *Engine) Search(q Query, topN, maxDocs int) ([]int, int) {
	if topN <= 0 {
		return nil, 0
	}
	// K-way merge over the query terms' posting lists in doc-id order.
	type cursor struct {
		ps  []Posting
		pos int
		idf float64
	}
	cursors := make([]cursor, 0, len(q.Terms))
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) || len(e.postings[t]) == 0 {
			continue
		}
		cursors = append(cursors, cursor{ps: e.postings[t], idf: e.idf[t]})
	}
	if len(cursors) == 0 {
		return nil, 0
	}

	heap := newTopN(topN)
	processed := 0
	for {
		// Find the smallest current doc id among cursors.
		cur := uint32(math.MaxUint32)
		for i := range cursors {
			if cursors[i].pos < len(cursors[i].ps) {
				if d := cursors[i].ps[cursors[i].pos].Doc; d < cur {
					cur = d
				}
			}
		}
		if cur == math.MaxUint32 {
			break
		}
		// Score the doc across all terms that contain it.
		score := e.quality[cur]
		for i := range cursors {
			c := &cursors[i]
			if c.pos < len(c.ps) && c.ps[c.pos].Doc == cur {
				tf := float64(c.ps[c.pos].TF)
				norm := bm25K1 * (1 - bm25B + bm25B*float64(e.docLen[cur])/e.avgLen)
				score += c.idf * tf * (bm25K1 + 1) / (tf + norm)
				c.pos++
			}
		}
		heap.push(Result{Doc: cur, Score: score})
		processed++
		if maxDocs > 0 && processed >= maxDocs {
			break
		}
	}
	return heap.ranked(), processed
}

// MatchCount returns the number of documents matching the query (the work
// of the precise version): its lists' union, counted on a bitmap.
func (e *Engine) MatchCount(q Query) int {
	seen, n := make([]uint64, (len(e.docLen)+63)/64), 0
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) {
			continue
		}
		for _, p := range e.postings[t] {
			n += int(^seen[p.Doc>>6] >> (p.Doc & 63) & 1)
			seen[p.Doc>>6] |= 1 << (p.Doc & 63)
		}
	}
	return n
}

// topN is a fixed-capacity min-heap keeping the N best results with
// deterministic tie-breaking (higher score wins; equal scores prefer the
// lower doc id, i.e. the higher static rank).
type topN struct {
	n       int
	rs      []Result
	scratch []Result // rankedInto's sort buffer, reused across calls
}

func newTopN(n int) *topN { return &topN{n: n} }

// reset reinitializes the heap for reuse with a new capacity, keeping
// its backing arrays (the pooled serve path resets rather than
// reallocating per request).
func (t *topN) reset(n int) {
	t.n = n
	t.rs = t.rs[:0]
}

// less reports whether a ranks strictly worse than b.
func less(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

func (t *topN) push(r Result) {
	if len(t.rs) < t.n {
		t.rs = append(t.rs, r)
		t.up(len(t.rs) - 1)
		return
	}
	if less(r, t.rs[0]) {
		return
	}
	t.rs[0] = r
	t.down(0)
}

// floor is the score a later document must beat to enter the page: the
// worst kept score once the page is full, NaN — which nothing fails to
// beat — while it still has room.
func (t *topN) floor() float64 {
	if len(t.rs) < t.n {
		return math.NaN()
	}
	return t.rs[0].Score
}

// beats reports whether push would insert a candidate of this score whose
// doc id is above every id pushed so far, as a scan's always is: not when
// it scores below the floor, and not when it ties (the higher id ranks
// worse). Written as a negation so that it agrees with push for every
// float64: a NaN floor (room left) or a NaN score compares false and
// pushes, as less does.
func beats(score, floor float64) bool { return !(score <= floor) }

func (t *topN) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(t.rs[i], t.rs[p]) {
			break
		}
		t.rs[i], t.rs[p] = t.rs[p], t.rs[i]
		i = p
	}
}

func (t *topN) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(t.rs) && less(t.rs[l], t.rs[m]) {
			m = l
		}
		if r < len(t.rs) && less(t.rs[r], t.rs[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.rs[i], t.rs[m] = t.rs[m], t.rs[i]
		i = m
	}
}

// ranked returns doc ids best-first.
func (t *topN) ranked() []int {
	rs := append([]Result(nil), t.rs...)
	sort.Slice(rs, func(i, j int) bool { return less(rs[j], rs[i]) })
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r.Doc)
	}
	return out
}

// rankedInto writes doc ids best-first into out (grown as needed) and
// returns the filled slice. Unlike ranked it allocates nothing once the
// heap's scratch buffer and out have warmed up: sorting is an insertion
// sort over the heap's N entries (N is the requested top-N — single
// digits to low tens — where insertion sort beats sort.Slice and its
// closure allocation).
func (t *topN) rankedInto(out []int) []int {
	t.scratch = append(t.scratch[:0], t.rs...)
	for i := 1; i < len(t.scratch); i++ {
		r := t.scratch[i]
		j := i - 1
		for j >= 0 && less(t.scratch[j], r) {
			t.scratch[j+1] = t.scratch[j]
			j--
		}
		t.scratch[j+1] = r
	}
	if cap(out) < len(t.scratch) {
		out = make([]int, len(t.scratch))
	}
	out = out[:len(t.scratch)]
	for i, r := range t.scratch {
		out[i] = int(r.Doc)
	}
	return out
}

// rankedResultsInto writes the full (doc, score) results best-first into
// out — the form a sharded worker returns so a coordinator can merge
// partials with the exact scores, not just rank order. Allocation-free
// once out and the scratch buffer have warmed up.
func (t *topN) rankedResultsInto(out []Result) []Result {
	t.scratch = append(t.scratch[:0], t.rs...)
	for i := 1; i < len(t.scratch); i++ {
		r := t.scratch[i]
		j := i - 1
		for j >= 0 && less(t.scratch[j], r) {
			t.scratch[j+1] = t.scratch[j]
			j--
		}
		t.scratch[j+1] = r
	}
	if cap(out) < len(t.scratch) {
		out = make([]Result, len(t.scratch))
	}
	out = out[:len(t.scratch)]
	copy(out, t.scratch)
	return out
}

// Merger folds ranked (doc, score) partials from shard workers into one
// top-N page using the same heap and deterministic tie-breaking (higher
// score wins, ties prefer the lower doc id) as a single engine's scan —
// so a coordinator over shards that preserve global doc ids produces
// byte-identical pages to the unsharded engine. A Merger is reusable:
// Reset, Push every partial result, then TopNInto.
type Merger struct {
	heap topN
}

// Reset prepares the merger for a new merge keeping the best n.
func (m *Merger) Reset(n int) {
	m.heap.reset(n)
}

// Push offers one shard result to the merge.
func (m *Merger) Push(doc int, score float64) {
	m.heap.push(Result{Doc: uint32(doc), Score: score})
}

// TopNInto writes the merged ranked doc ids into out, growing it only
// if needed.
func (m *Merger) TopNInto(out []int) []int {
	return m.heap.rankedInto(out)
}

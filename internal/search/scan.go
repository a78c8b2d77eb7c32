package search

import "math"

// Scan is an incremental query execution: matching documents are scored
// a block at a time (StepN; Step is the block of one) in doc-id
// (descending static rank) order while a running top-N is maintained. It
// exposes the per-query matching-document loop as an iterable so the
// Green loop controller can approximate it — the operational form of the
// paper's Bing Search integration.
type Scan struct {
	engine  *Engine
	cursors []scanCursor
	heap    *topN
	n       int
	topNCap int
}

type scanCursor struct {
	ps  []Posting
	pos int
	idf float64
}

// NewScan starts an incremental execution of q keeping the best topN
// documents.
func (e *Engine) NewScan(q Query, topN int) *Scan {
	s := &Scan{heap: newTopN(topN)}
	s.Reset(e, q, topN)
	return s
}

// Reset reinitializes the scan in place for a new query, reusing the
// cursor slice and heap storage so a pooled Scan serves its next request
// without allocating.
func (s *Scan) Reset(e *Engine, q Query, topN int) {
	s.engine = e
	s.cursors = s.cursors[:0]
	if s.heap == nil {
		s.heap = newTopN(topN)
	}
	s.heap.reset(topN)
	s.n = 0
	s.topNCap = topN
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) || len(e.postings[t]) == 0 {
			continue
		}
		s.cursors = append(s.cursors, scanCursor{ps: e.postings[t], idf: e.idf[t]})
	}
}

// Step scores the next matching document and reports whether one
// existed: the one-document entry of the block kernel.
func (s *Scan) Step() bool { return s.StepN(1) == 1 }

// StepN scores up to k further matching documents and returns how many
// were scored; fewer than k means the scan exhausted. It is the scan's
// one kernel, shaped by the number of live posting lists: a
// straight-line loop over one list, two- and three-way merges whose
// choice of list is arithmetic rather than a branch, and the general
// k-way merge beyond that. A shape runs until the block is done or one
// of its lists runs out; that list then leaves s.cursors (compact), so
// a long scan finishes in the leanest shape its remaining lists allow.
// Every shape evaluates Search's score expression in Search's summation
// order (terms in query order), so pages and scores are bit-identical
// to Search at the same document count.
func (s *Scan) StepN(k int) int {
	if k <= 0 || s.topNCap <= 0 {
		return 0
	}
	done := 0
	for done < k && len(s.cursors) > 0 {
		switch len(s.cursors) {
		case 1:
			done += s.scan1(k - done)
		case 2:
			done += s.scan2(k - done)
		case 3:
			done += s.scan3(k - done)
		default:
			done += s.scanK(k - done)
		}
		s.compact()
	}
	s.n += done
	return done
}

// compact drops the cursors whose lists ran out, keeping the rest in
// query order: between shape calls every cursor has a posting left.
func (s *Scan) compact() {
	live := 0
	for i := range s.cursors {
		if c := &s.cursors[i]; c.pos < len(c.ps) {
			if live != i {
				s.cursors[live] = *c
			}
			live++
		}
	}
	s.cursors = s.cursors[:live]
}

// bm25 is one posting's dynamic score contribution given its document's
// length normalization — Search's expression, term for term.
func bm25(idf float64, tf uint16, norm float64) float64 {
	f := float64(tf)
	return idf * f * (bm25K1 + 1) / (f + norm)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The shapes below keep the page's floor (topN.floor) in a register and
// push only a candidate that passes beats(score, floor). That is exactly
// the set push itself would insert: a scan meets documents in ascending
// id, so a candidate whose score equals the floor's has the higher id and
// loses the tie — nearly every document of a long scan is settled by one
// compare and never reaches the heap.

// scan1 scores up to k postings of the single live list.
func (s *Scan) scan1(k int) int {
	c := &s.cursors[0]
	ps := c.ps[c.pos:]
	if len(ps) > k {
		ps = ps[:k]
	}
	recs, idf, heap := s.engine.recs, c.idf, s.heap
	floor := heap.floor()
	for _, p := range ps {
		r := recs[p.Doc]
		if score := r.quality + bm25(idf, p.TF, r.norm); beats(score, floor) {
			heap.push(Result{Doc: p.Doc, Score: score})
			floor = heap.floor()
		}
	}
	c.pos += len(ps)
	return len(ps)
}

// scan2 merges the two live lists. Which list holds the smaller doc id
// is a coin flip the branch predictor loses, so the pick is computed:
// the posting, its idf and the cursor advances all follow from one
// comparison result. Only a document in both lists (rare, and so
// predictable) takes a branch.
func (s *Scan) scan2(k int) int {
	a, b := &s.cursors[0], &s.cursors[1]
	pa, pb := a.ps, b.ps
	i, j := uint(a.pos), uint(b.pos)
	recs, heap := s.engine.recs, s.heap
	idfs := [2]float64{a.idf, b.idf}
	floor := heap.floor()
	left := k
	for left > 0 && i < uint(len(pa)) && j < uint(len(pb)) {
		x, y := pa[i], pb[j]
		doc := x.Doc
		var score float64
		if x.Doc == y.Doc {
			r := recs[doc]
			score = r.quality + bm25(idfs[0], x.TF, r.norm)
			score += bm25(idfs[1], y.TF, r.norm)
			i++
			j++
		} else {
			pickB := uint(b2i(y.Doc < x.Doc))
			// mask is all ones when b's posting is the pick: x ^ (x^y)&mask
			// selects y then, x otherwise.
			mask := -uint32(pickB)
			doc = x.Doc ^ (x.Doc^y.Doc)&mask
			tf := x.TF ^ (x.TF^y.TF)&uint16(mask)
			r := recs[doc]
			score = r.quality + bm25(idfs[pickB&1], tf, r.norm)
			i += 1 - pickB
			j += pickB
		}
		if beats(score, floor) {
			heap.push(Result{Doc: doc, Score: score})
			floor = heap.floor()
		}
		left--
	}
	a.pos, b.pos = int(i), int(j)
	return k - left
}

// scan3 merges the three live lists the way scan2 merges two. A list
// holds the smallest current doc id when its id is <= both others: three
// 0/1 flags from pairwise comparisons (a min over the ids compiles to
// branches as unpredictable as the merge itself) advance the cursors
// and, in the common case of exactly one holder, select the posting and
// idf. A document in several lists sums its terms in query order behind
// the one (rare) branch.
func (s *Scan) scan3(k int) int {
	a, b, c := &s.cursors[0], &s.cursors[1], &s.cursors[2]
	pa, pb, pc := a.ps, b.ps, c.ps
	i, j, l := uint(a.pos), uint(b.pos), uint(c.pos)
	recs, heap := s.engine.recs, s.heap
	idfs := [4]float64{a.idf, b.idf, c.idf} // indexed &3: no bounds check
	floor := heap.floor()
	left := k
	for left > 0 && i < uint(len(pa)) && j < uint(len(pb)) && l < uint(len(pc)) {
		x, y, z := pa[i], pb[j], pc[l]
		inA := uint(b2i(x.Doc <= y.Doc) & b2i(x.Doc <= z.Doc))
		inB := uint(b2i(y.Doc <= x.Doc) & b2i(y.Doc <= z.Doc))
		inC := uint(b2i(z.Doc <= x.Doc) & b2i(z.Doc <= y.Doc))
		doc := x.Doc&-uint32(inA) | y.Doc&-uint32(inB) | z.Doc&-uint32(inC)
		i += inA
		j += inB
		l += inC
		r := recs[doc]
		var score float64
		if inA+inB+inC == 1 {
			tf := x.TF&-uint16(inA) | y.TF&-uint16(inB) | z.TF&-uint16(inC)
			score = r.quality + bm25(idfs[(inB+2*inC)&3], tf, r.norm)
		} else {
			score = r.quality
			if inA == 1 {
				score += bm25(idfs[0], x.TF, r.norm)
			}
			if inB == 1 {
				score += bm25(idfs[1], y.TF, r.norm)
			}
			if inC == 1 {
				score += bm25(idfs[2], z.TF, r.norm)
			}
		}
		if beats(score, floor) {
			heap.push(Result{Doc: doc, Score: score})
			floor = heap.floor()
		}
		left--
	}
	a.pos, b.pos, c.pos = int(i), int(j), int(l)
	return k - left
}

// scanK is the general k-way merge: find the smallest current doc id,
// then score it across every list that holds it.
func (s *Scan) scanK(k int) int {
	cs := s.cursors
	recs, heap := s.engine.recs, s.heap
	floor := heap.floor()
	done := 0
	for ranOut := false; done < k && !ranOut; done++ {
		cur := uint32(math.MaxUint32)
		for i := range cs {
			cur = min(cur, cs[i].ps[cs[i].pos].Doc)
		}
		r := recs[cur]
		score := r.quality
		for i := range cs {
			c := &cs[i]
			if p := c.ps[c.pos]; p.Doc == cur {
				score += bm25(c.idf, p.TF, r.norm)
				c.pos++
				ranOut = ranOut || c.pos == len(c.ps)
			}
		}
		if beats(score, floor) {
			heap.push(Result{Doc: cur, Score: score})
			floor = heap.floor()
		}
	}
	return done
}

// Processed returns the number of matching documents scored so far.
func (s *Scan) Processed() int { return s.n }

// TopN returns the current ranked top-N document ids.
func (s *Scan) TopN() []int { return s.heap.ranked() }

// TopNInto writes the current ranked top-N document ids into out,
// growing it only if needed; with a warmed-up buffer it allocates
// nothing.
func (s *Scan) TopNInto(out []int) []int { return s.heap.rankedInto(out) }

// TopNResultsInto writes the current ranked top-N (doc, score) results
// into out — the score-bearing form a sharded worker serves so the
// coordinator's merge ranks on exact scores.
func (s *Scan) TopNResultsInto(out []Result) []Result { return s.heap.rankedResultsInto(out) }

// Exhausted reports whether all matching documents have been scored.
func (s *Scan) Exhausted() bool { return len(s.cursors) == 0 }

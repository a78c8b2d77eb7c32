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
// one kernel, shaped by the number of live query terms: a straight-line
// loop over one posting list, a two-way merge whose choice of list is
// arithmetic rather than a branch, and the general k-way merge beyond
// that. Every shape evaluates Search's score expression in Search's
// summation order (terms in query order), so pages and scores are
// bit-identical to Search at the same document count.
func (s *Scan) StepN(k int) int {
	if k <= 0 || s.topNCap <= 0 {
		return 0
	}
	var done int
	switch len(s.cursors) {
	case 1:
		done = s.scan1(&s.cursors[0], k)
	case 2:
		done = s.scan2(k)
	default:
		done = s.scanK(k)
	}
	s.n += done
	return done
}

// bm25 is one posting's dynamic score contribution given its document's
// length normalization — Search's expression, term for term.
func bm25(idf float64, tf uint16, norm float64) float64 {
	f := float64(tf)
	return idf * f * (bm25K1 + 1) / (f + norm)
}

// scan1 scores up to k postings of the single live list c.
func (s *Scan) scan1(c *scanCursor, k int) int {
	ps := c.ps[c.pos:]
	if len(ps) > k {
		ps = ps[:k]
	}
	recs, idf, heap := s.engine.recs, c.idf, s.heap
	for _, p := range ps {
		r := recs[p.Doc]
		heap.push(Result{Doc: p.Doc, Score: r.quality + bm25(idf, p.TF, r.norm)})
	}
	c.pos += len(ps)
	return len(ps)
}

// scan2 merges the two live lists. Which list holds the smaller doc id
// is a coin flip the branch predictor loses, so the pick is computed:
// the posting, its idf and the cursor advances all follow from one
// comparison result. Only a document in both lists (rare, and so
// predictable) takes a branch. Once either list runs out the other
// finishes the block as a single list.
func (s *Scan) scan2(k int) int {
	a, b := &s.cursors[0], &s.cursors[1]
	pa, pb := a.ps, b.ps
	i, j := a.pos, b.pos
	recs, heap := s.engine.recs, s.heap
	idfs := [2]float64{a.idf, b.idf}
	done := 0
	for done < k && i < len(pa) && j < len(pb) {
		x, y := pa[i], pb[j]
		var c Result
		if x.Doc == y.Doc {
			r := recs[x.Doc]
			c = Result{Doc: x.Doc, Score: r.quality + bm25(idfs[0], x.TF, r.norm)}
			c.Score += bm25(idfs[1], y.TF, r.norm)
			i++
			j++
		} else {
			pickB := 0
			if y.Doc < x.Doc {
				pickB = 1
			}
			// mask is all ones when b's posting is the pick: x ^ (x^y)&mask
			// selects y then, x otherwise.
			mask := -uint32(pickB)
			doc := x.Doc ^ (x.Doc^y.Doc)&mask
			tf := x.TF ^ (x.TF^y.TF)&uint16(mask)
			r := recs[doc]
			c = Result{Doc: doc, Score: r.quality + bm25(idfs[pickB], tf, r.norm)}
			i += 1 - pickB
			j += pickB
		}
		heap.push(c)
		done++
	}
	a.pos, b.pos = i, j
	if done < k && i < len(pa) {
		done += s.scan1(a, k-done)
	} else if done < k && j < len(pb) {
		done += s.scan1(b, k-done)
	}
	return done
}

// scanK is the general k-way merge: find the smallest current doc id,
// then score it across every list that holds it.
func (s *Scan) scanK(k int) int {
	recs, heap := s.engine.recs, s.heap
	done := 0
	for ; done < k; done++ {
		cur := uint32(math.MaxUint32)
		for i := range s.cursors {
			c := &s.cursors[i]
			if c.pos < len(c.ps) && c.ps[c.pos].Doc < cur {
				cur = c.ps[c.pos].Doc
			}
		}
		if cur == math.MaxUint32 {
			break
		}
		r := recs[cur]
		score := r.quality
		for i := range s.cursors {
			c := &s.cursors[i]
			if c.pos < len(c.ps) && c.ps[c.pos].Doc == cur {
				score += bm25(c.idf, c.ps[c.pos].TF, r.norm)
				c.pos++
			}
		}
		heap.push(Result{Doc: cur, Score: score})
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
func (s *Scan) Exhausted() bool {
	for i := range s.cursors {
		if s.cursors[i].pos < len(s.cursors[i].ps) {
			return false
		}
	}
	return true
}

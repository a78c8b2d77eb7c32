package search

// ScanAnd is the incremental form of SearchAnd: conjunctive matches are
// scored one Step at a time so the per-query intersection loop can sit
// under a Green loop controller, exactly as Scan does for the
// disjunctive path. The intersection is driven from the rarest posting
// list; each Step advances the lead cursor until it scores the next
// document containing every query term.
type ScanAnd struct {
	engine *Engine
	lists  [][]Posting
	imps   [][]float64 // the terms' impact tables
	pos    []int
	lead   int
	heap   *topN
	n      int
	dead   bool // a term had no postings: no conjunctive match exists
}

// NewScanAnd starts an incremental conjunctive execution of q keeping
// the best topN documents.
func (e *Engine) NewScanAnd(q Query, topN int) *ScanAnd {
	s := &ScanAnd{heap: newTopN(topN)}
	s.Reset(e, q, topN)
	return s
}

// Reset reinitializes the scan in place for a new query, reusing the
// list/position slices and heap storage so a pooled ScanAnd serves its
// next request without allocating.
func (s *ScanAnd) Reset(e *Engine, q Query, topN int) {
	s.engine = e
	s.lists = s.lists[:0]
	s.imps = s.imps[:0]
	s.pos = s.pos[:0]
	s.lead = 0
	if s.heap == nil {
		s.heap = newTopN(topN)
	}
	s.heap.reset(topN)
	s.n = 0
	s.dead = false
	if topN <= 0 || len(q.Terms) == 0 {
		s.dead = true
		return
	}
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) || len(e.postings[t]) == 0 {
			s.dead = true
			return
		}
		s.lists = append(s.lists, e.postings[t])
		s.imps = append(s.imps, e.table(t))
	}
	if cap(s.pos) < len(s.lists) {
		s.pos = make([]int, len(s.lists))
	} else {
		s.pos = s.pos[:len(s.lists)]
		for i := range s.pos {
			s.pos[i] = 0
		}
	}
	for i := range s.lists {
		if len(s.lists[i]) < len(s.lists[s.lead]) {
			s.lead = i
		}
	}
}

// Step scores the next conjunctively matching document and reports
// whether one existed.
func (s *ScanAnd) Step() bool {
	if s.dead {
		return false
	}
	quality := s.engine.quality
	for s.pos[s.lead] < len(s.lists[s.lead]) {
		doc := s.lists[s.lead][s.pos[s.lead]].Doc
		s.pos[s.lead]++
		inAll := true
		score := quality[doc]
		for i := range s.lists {
			if i == s.lead {
				score += s.imps[i][s.lists[i][s.pos[i]-1].pair]
				continue
			}
			for s.pos[i] < len(s.lists[i]) && s.lists[i][s.pos[i]].Doc < doc {
				s.pos[i]++
			}
			if s.pos[i] >= len(s.lists[i]) || s.lists[i][s.pos[i]].Doc != doc {
				inAll = false
				break
			}
			score += s.imps[i][s.lists[i][s.pos[i]].pair]
		}
		if !inAll {
			continue
		}
		// Matches arrive in ascending doc id, so Scan's floor test holds.
		if beats(score, s.heap.floor()) {
			s.heap.push(Result{Doc: doc, Score: score})
		}
		s.n++
		return true
	}
	return false
}

// StepN scores up to k further conjunctive matches and returns how many
// were scored; fewer than k means the scan exhausted.
func (s *ScanAnd) StepN(k int) int {
	done := 0
	for ; done < k; done++ {
		if !s.Step() {
			break
		}
	}
	return done
}

// Processed returns the number of conjunctive matches scored so far.
func (s *ScanAnd) Processed() int { return s.n }

// TopN returns the current ranked top-N document ids.
func (s *ScanAnd) TopN() []int { return s.heap.ranked() }

// TopNInto writes the current ranked top-N document ids into out,
// growing it only if needed; with a warmed-up buffer it allocates
// nothing.
func (s *ScanAnd) TopNInto(out []int) []int { return s.heap.rankedInto(out) }

// TopNResultsInto writes the current ranked top-N (doc, score) results
// into out, as Scan.TopNResultsInto does for the disjunctive path.
func (s *ScanAnd) TopNResultsInto(out []Result) []Result { return s.heap.rankedResultsInto(out) }

// Exhausted reports whether the lead posting list has been fully
// consumed (no further conjunctive match can exist).
func (s *ScanAnd) Exhausted() bool {
	return s.dead || s.pos[s.lead] >= len(s.lists[s.lead])
}

// Final is Exhausted: the conjunctive scan bounds nothing it has not reached.
func (s *ScanAnd) Final() bool { return s.Exhausted() }

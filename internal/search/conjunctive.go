package search

// Conjunctive (AND) retrieval: a document matches only if it contains
// every query term. Production engines answer multi-term queries
// conjunctively by default; the disjunctive Search remains the substrate
// for the paper's experiments (its matching-document streams are longer,
// which is what the M-capping approximation needs), while SearchAnd
// serves the HTTP service's strict (mode=and) queries, precisely.

// SearchAnd executes the query conjunctively and returns the top-N
// document ids in rank order plus the matching documents scored.
// Scoring is identical to Search (BM25 over the query terms plus the
// static prior).
func (e *Engine) SearchAnd(q Query, topN int) ([]int, int) {
	if topN <= 0 || len(q.Terms) == 0 {
		return nil, 0
	}
	// Validate terms and collect posting lists; any missing term means
	// no conjunctive match at all.
	lists := make([][]Posting, 0, len(q.Terms))
	idfs := make([]float64, 0, len(q.Terms))
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) || len(e.postings[t]) == 0 {
			return nil, 0
		}
		lists = append(lists, e.postings[t])
		idfs = append(idfs, e.idf[t])
	}
	// Drive the intersection from the rarest list.
	lead := 0
	for i := range lists {
		if len(lists[i]) < len(lists[lead]) {
			lead = i
		}
	}
	pos := make([]int, len(lists))
	heap := newTopN(topN)
	processed := 0

	for _, p := range lists[lead] {
		doc := p.Doc
		inAll := true
		score := e.quality[doc]
		for i := range lists {
			// Galloping would be faster; linear advance suffices for the
			// synthetic corpus sizes.
			for pos[i] < len(lists[i]) && lists[i][pos[i]].Doc < doc {
				pos[i]++
			}
			if pos[i] >= len(lists[i]) || lists[i][pos[i]].Doc != doc {
				inAll = false
				break
			}
			tf := float64(lists[i][pos[i]].TF)
			norm := bm25K1 * (1 - bm25B + bm25B*float64(e.docLen[doc])/e.avgLen)
			score += idfs[i] * tf * (bm25K1 + 1) / (tf + norm)
		}
		if !inAll {
			continue
		}
		heap.push(Result{Doc: doc, Score: score})
		processed++
	}
	return heap.ranked(), processed
}

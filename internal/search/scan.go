package search

import (
	"math"
	"math/bits"
)

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
	win     window
	// blk is Final's block cursor: no block before it can hold a document
	// that beats the floor, whatever is left to score.
	blk int
}

type scanCursor struct {
	ps  []Posting
	pos int
	imp []float64 // the term's impact table
	max float64   // and its largest entry (Engine.maxImp)
	bm  []uint32  // and its row of block and group cells (Engine.blocks)
}

// window is the union of two or more posting lists over windowIDs
// consecutive doc ids starting at base, scored ahead of being handed
// out: slot d-base of acc holds document d's score, its bit in member
// says the slot is in use, its bit in cand that the score beat the
// page's floor as it stood when the window was filled. Words below word
// are zero, and pending — the members not yet handed out — is the
// population of the rest, so an empty window is an all-zero one.
type window struct {
	base    uint32
	word    int
	pending int
	member  [windowWords]uint64
	cand    [windowWords]uint64
	acc     [windowIDs]float64
}

const (
	windowIDs   = 2048
	windowWords = windowIDs / 64
	// blockIDs is the span of ids Final bounds as one: an eighth of a
	// window.
	blockIDs = 256
)

// NewScan starts an incremental execution of q keeping the best topN
// documents.
func (e *Engine) NewScan(q Query, topN int) *Scan {
	s := &Scan{heap: newTopN(topN)}
	s.Reset(e, q, topN)
	return s
}

// Reset reinitializes the scan in place for a new query, reusing the
// cursor slice, heap storage and window so a pooled Scan serves its
// next request without allocating. A scan abandoned mid-window (the
// approximated stop) leaves members behind; they are cleared here.
func (s *Scan) Reset(e *Engine, q Query, topN int) {
	s.engine = e
	s.cursors = s.cursors[:0]
	if s.heap == nil {
		s.heap = newTopN(topN)
	}
	s.heap.reset(topN)
	s.n = 0
	s.topNCap = topN
	s.blk = 0
	if w := &s.win; w.pending > 0 {
		clear(w.member[w.word:])
		clear(w.cand[w.word:])
		w.pending = 0
	}
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) || len(e.postings[t]) == 0 {
			continue
		}
		s.cursors = append(s.cursors, scanCursor{ps: e.postings[t], imp: e.table(t), max: e.maxImp[t], bm: e.blocks(t)})
	}
}

// Step scores the next matching document and reports whether one
// existed: the one-document entry of the block kernel.
func (s *Scan) Step() bool { return s.StepN(1) == 1 }

// StepN scores up to k further matching documents and returns how many
// were scored; fewer than k means the scan exhausted. It is the scan's
// one kernel, in two shapes: a straight-line loop over a single live
// list (scan1), and for two or more a window — fill scores the union of
// the lists over the next windowIDs doc ids, one list at a time, and
// drain hands the members out in id order. A list that runs out leaves
// s.cursors (compact), so a long scan finishes as scan1. Both shapes
// score a posting as quality[p.Doc] + imp[p.pair], the impact being
// Search's term value for that (tf, length) by Search's expression; they
// sum in Search's order (terms in query order) and push documents in id
// order, exactly the k handed out, so pages and scores are bit-identical
// to Search at the same document count; what a window scored ahead of
// the last grant (less than one window) is in neither the page nor
// Processed.
func (s *Scan) StepN(k int) int {
	if k <= 0 || s.topNCap <= 0 {
		return 0
	}
	done := 0
	for done < k {
		if s.win.pending > 0 {
			done += s.drain(k - done)
		} else if len(s.cursors) > 1 {
			s.fill()
		} else if len(s.cursors) == 1 {
			done += s.scan1(k - done)
			s.compact()
		} else {
			break
		}
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
	quality, imp, heap := s.engine.quality, c.imp, s.heap
	floor := heap.floor()
	for _, p := range ps {
		if score := quality[p.Doc] + imp[p.pair]; beats(score, floor) {
			heap.push(Result{Doc: p.Doc, Score: score})
			floor = heap.floor()
		}
	}
	c.pos += len(ps)
	return len(ps)
}

// fill scores every posting of the live lists inside the window that
// starts at the smallest current doc id. Each list in query order runs
// one loop with no cursor to compare against another list's: a slot's
// score starts from the document's quality the first time a list
// reaches it and adds one impact per list after that, which is Search's
// sum. The floor is read once, before the loop: no later floor is
// lower, so the slots flagged in cand are a superset of those that will
// beat the floor when drain hands them out, and drain tests again.
func (s *Scan) fill() {
	w := &s.win
	base := uint32(math.MaxUint32)
	for i := range s.cursors {
		c := &s.cursors[i]
		base = min(base, c.ps[c.pos].Doc)
	}
	quality, floor := s.engine.quality, s.heap.floor()
	pending := 0
	for i := range s.cursors {
		c := &s.cursors[i]
		imp, n := c.imp, 0
		for _, p := range c.ps[c.pos:] {
			off := p.Doc - base
			if off >= windowIDs {
				break
			}
			wi, bit := off>>6, uint64(1)<<(off&63)
			m := w.member[wi]
			score := quality[p.Doc]
			if m&bit != 0 { // an earlier list holds the document too
				score = w.acc[off]
				pending--
			}
			score += imp[p.pair]
			w.acc[off] = score
			w.member[wi] = m | bit
			if beats(score, floor) {
				w.cand[wi] |= bit
			}
			n++
		}
		c.pos += n
		pending += n
	}
	w.base, w.word, w.pending = base, 0, pending
	s.compact()
}

// drain hands out up to k of the window's members in id order: whole
// words by population count, bit by bit only in the word where the
// grant ends, clearing what it consumes. Only flagged slots are read,
// and pushed if they beat the floor as it stands now.
func (s *Scan) drain(k int) int {
	w, heap := &s.win, s.heap
	floor := heap.floor()
	k = min(k, w.pending)
	wi := w.word
	for left := k; left > 0; wi++ {
		m, c := w.member[wi], w.cand[wi]
		rest := uint64(0) // members staying behind
		if n := bits.OnesCount64(m); n <= left {
			left -= n
		} else {
			for rest = m; left > 0; left-- {
				rest &= rest - 1
			}
		}
		w.member[wi], w.cand[wi] = rest, c&rest
		for c &^= rest; c != 0; c &= c - 1 {
			off := uint(wi)<<6 | uint(bits.TrailingZeros64(c))
			if score := w.acc[off%windowIDs]; beats(score, floor) {
				heap.push(Result{Doc: w.base + uint32(off), Score: score})
				floor = heap.floor()
			}
		}
		if rest != 0 {
			break
		}
	}
	w.word = wi
	w.pending -= k
	return k
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
func (s *Scan) Exhausted() bool { return len(s.cursors) == 0 && s.win.pending == 0 }

// Final reports whether the page is the exhausted scan's already: no
// pending member beats the full page's floor, nor can a document no list
// has reached. The sum of the lists' largest impacts over the suffix's
// best quality bounds every such document at once and is tried first
// (MaxScore, Turtle & Flood 1995). Then block by block: a document in
// block b holds some set S of the live lists and scores at most qblk[b]
// plus the largest impact in b (hi) of each list in S — and, since its
// quality + impact of any one t in S is at most qblk[b] + hi(t) −
// gain(t), that less the largest gain in S, less a margin for the
// summation order. The best S for a given largest gain takes every list
// whose gain is no larger, so the bound is the largest of as many sums
// as live lists with a posting in b (the subset bound); a block no live
// list reaches holds no match. At a group's first block
// the group's cells are tried first: a group whose bound fails is
// skipped whole. DESIGN §12, "finality certificate". A block whose bound
// fails to beat the floor fails for good — the floor only rises, lists
// only drop out — so the block cursor only moves forward: O(blocks ×
// lists) per scan, and lists² at a block the joint bound lets through.
func (s *Scan) Final() bool {
	if s.topNCap <= 0 || s.Exhausted() {
		return true
	}
	w, floor := &s.win, s.heap.floor() // NaN while the page has room
	for wi := w.word; w.pending > 0 && wi < windowWords; wi++ {
		for c := w.cand[wi]; c != 0; c &= c - 1 {
			if beats(w.acc[wi<<6|bits.TrailingZeros64(c)], floor) {
				return false
			}
		}
	}
	if len(s.cursors) == 0 {
		return true
	}
	next := uint32(math.MaxUint32)
	for i := range s.cursors {
		next = min(next, s.cursors[i].ps[s.cursors[i].pos].Doc)
	}
	e := s.engine
	b := max(s.blk, int(next/blockIDs))
	if b == len(e.qblk) {
		return true
	}
	bound, total := e.qmax[b], e.qabs
	for i := range s.cursors {
		bound += s.cursors[i].max
		total += s.cursors[i].max
	}
	if !beats(bound, floor) {
		return true
	}
	margin, nblk := marginOf(len(s.cursors), total), len(e.qblk)
	for b < nblk {
		// The joint bound, no lower than the subset bound, is tried first
		// and inline: most blocks of a walk fail it.
		if g := b / groupBlocks; b%groupBlocks == 0 {
			if bound, gain := s.sumAt(e.qgrp[g], nblk+g); !beats(joint(bound, gain, margin), floor) || !s.subsetBeats(e.qgrp[g], nblk+g, margin, floor) {
				b += groupBlocks // no block of the group can beat the floor
				continue
			}
		}
		if bound, gain := s.sumAt(e.qblk[b], b); beats(joint(bound, gain, margin), floor) && s.subsetBeats(e.qblk[b], b, margin, floor) {
			break
		}
		b++
	}
	s.blk = min(b, nblk)
	return s.blk == nblk
}

// groupBlocks is how many blocks Final skips at once on a group's cells,
// which bound every block of the group: a certificate's walk to the last
// block reads a sixteenth of the table.
const groupBlocks = 16

// subsetBeats reports whether a document in column col of the live
// lists' rows of cells (a block, or a group past the blocks), of quality
// at most q, can beat floor by its subset bound: whether, for some live
// list t with a posting there, q plus the hi of every live list whose
// gain there is at most t's (sumTo), less t's gain (joint), does. Each
// sum only leaves lists out of sumAt's, so it is no larger in floating
// point either, and t's gain is at least the least one: the subset bound
// never exceeds the joint bound.
func (s *Scan) subsetBeats(q float64, col int, margin, floor float64) bool {
	for j := range s.cursors {
		if gain := uint16(s.cursors[j].bm[col]); gain != noPosting && beats(joint(s.sumTo(q, col, gain), gain, margin), floor) {
			return true
		}
	}
	return false
}

// sumTo is q plus the hi in column col of each live list whose gain
// there is at most gain, summed in Search's order.
func (s *Scan) sumTo(q float64, col int, gain uint16) float64 {
	for i := range s.cursors {
		if cell := s.cursors[i].bm[col]; uint16(cell) <= gain {
			q += bf16(uint16(cell >> 16))
		}
	}
	return q
}

// sumAt is q plus each live list's hi in column col of its row of cells,
// summed in Search's order, and the least of their gains.
func (s *Scan) sumAt(q float64, col int) (float64, uint16) {
	gain := uint16(noPosting)
	for i := range s.cursors {
		cell := s.cursors[i].bm[col]
		q += bf16(uint16(cell >> 16))
		gain = min(gain, uint16(cell))
	}
	return q, gain
}

// marginOf is the block bounds' allowance for summing a document's score
// in an order other than the bound's: n live lists, total the largest
// |quality| plus their largest impacts. Each sum is within n ulps of
// total, so 8(n+2) of them (2^-50 = 8·2^-53) cover the score's, the
// bound's and the gain's rounding with room to spare; NaN or +Inf when
// total is, which turns the gain off.
func marginOf(n int, total float64) float64 { return float64(n+2) * 0x1p-50 * total }

// joint lowers a block's per-block bound by a gain less the margin, when
// that is positive; a gain of +Inf (no live list has a posting in the
// block) takes the bound to −Inf.
func joint(bound float64, gain uint16, margin float64) float64 {
	if d := bf16(gain) - margin; d > 0 {
		return bound - d
	}
	return bound
}

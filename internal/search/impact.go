package search

import (
	"fmt"
	"math"
)

// maxGrid bounds buildImpacts' scratch grid, one cell per (tf, length
// class): 512 KB. NewEngine's grid is at most 384 × 256 cells.
const maxGrid = 1 << 17

// buildImpacts derives every term's impact table and points each
// posting's pair at its entry. On entry a posting's pair holds its
// document's length class, an index into lens, and no tf exceeds maxTF;
// on return table(t) holds one value per distinct (tf, class) of list t,
// each by Search's BM25 expression for that tf and length, so a scan's
// quality[p.Doc] + table(t)[p.pair] is Search's score bit for bit
// without its division. The tables are one exactly sized array, end to
// end, with Scan.Final's maxImp and qmax beside them. The pairs are
// gathered in buf's backing array: a list has no more distinct pairs
// than postings, so a buf of a capacity of at least every list's length
// summed (NewEngine's spent entries) never grows. Refused: a list out
// of ascending doc id, one with more distinct pairs than a 16-bit index
// reaches, and a grid over maxGrid cells.
func (e *Engine) buildImpacts(lens []int, maxTF int, buf []uint32) error {
	classes := len(lens)
	if (maxTF+1)*classes > maxGrid {
		return fmt.Errorf("%d tf values by %d document lengths is over %d cells", maxTF+1, classes, maxGrid)
	}
	// A cell holds 1 + the index in keys of its pair; keys only grows, so
	// a cell at or below the current list's first index is an earlier
	// list's, and no cell is ever cleared.
	grid := make([]uint32, (maxTF+1)*classes)
	keys := buf[:0] // class<<16 | tf of each list's pairs, list after list
	at := make([]int, 1, len(e.postings)+1)
	for t, ps := range e.postings {
		first, prev := len(keys), int64(-1)
		for i := range ps {
			p := &ps[i]
			if int64(p.Doc) <= prev {
				return fmt.Errorf("term %d: postings not in ascending doc id", t)
			}
			prev = int64(p.Doc)
			cell := int(p.TF)*classes + int(p.pair)
			if int(grid[cell]) <= first { // the list's first posting with this pair
				if len(keys)-first == 1<<16 {
					return fmt.Errorf("term %d: more than %d distinct (tf, length) pairs", t, 1<<16)
				}
				keys = append(keys, uint32(p.pair)<<16|uint32(p.TF))
				grid[cell] = uint32(len(keys))
			}
			p.pair = uint16(int(grid[cell]) - 1 - first)
		}
		at = append(at, len(keys))
	}
	norm := make([]float64, classes)
	for i, l := range lens {
		norm[i] = bm25K1 * (1 - bm25B + bm25B*float64(l)/e.avgLen)
	}
	e.imp, e.impAt, e.maxImp = make([]float64, len(keys)), at, make([]float64, len(e.postings))
	for t := range e.postings {
		for i := at[t]; i < at[t+1]; i++ {
			tf := float64(uint16(keys[i]))
			e.imp[i] = e.idf[t] * tf * (bm25K1 + 1) / (tf + norm[keys[i]>>16])
			if e.maxImp[t] = max(e.maxImp[t], e.imp[i]); !(e.imp[i] >= 0) {
				e.maxImp[t] = math.Inf(1) // a negative or NaN idf: never certify
			}
		}
	}
	e.qmax = make([]float64, (len(e.quality)+windowIDs-1)/windowIDs)
	for d, m := len(e.quality)-1, math.Inf(-1); d >= 0; d-- {
		m = max(m, e.quality[d]) // a NaN would stay: no bound
		e.qmax[d/windowIDs] = m
	}
	return nil
}

// table is term t's impact table.
func (e *Engine) table(t int) []float64 { return e.imp[e.impAt[t]:e.impAt[t+1]] }

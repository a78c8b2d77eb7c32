package search

import (
	"fmt"
	"math"
	"slices"
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
// end, with Scan.Final's bounds beside them: each term's largest impact
// (+Inf if one is < 0 or NaN); per blockIDs-id block the largest quality
// in it (qblk) and at or after it (qmax, NaN if a quality is); and each
// term's largest impact in each block (blocks), rounded up to a bfloat16,
// 0 where the term has no posting and +Inf where an impact is < 0 or
// NaN. The pairs are gathered in buf's backing array: a list has no
// more distinct pairs than postings, so a buf of a capacity of at least
// every list's length summed (NewEngine's spent entries) never grows.
// Refused: a list out of ascending doc id or past the corpus, one with
// more distinct pairs than a 16-bit index reaches, and a grid over
// maxGrid cells.
func (e *Engine) buildImpacts(lens []int, maxTF int, buf []uint32) error {
	classes := len(lens)
	if (maxTF+1)*classes > maxGrid {
		return fmt.Errorf("%d tf values by %d document lengths is over %d cells", maxTF+1, classes, maxGrid)
	}
	norm := make([]float64, classes)
	for i, l := range lens {
		norm[i] = bm25K1 * (1 - bm25B + bm25B*float64(l)/e.avgLen)
	}
	// A cell holds 1 + the index in keys of its pair; keys only grows, so
	// a cell at or below the current list's first index is an earlier
	// list's, and no cell is ever cleared. up holds the pair's impact in
	// the current list rounded up to a bfloat16, +Inf if it is < 0 or NaN
	// (never certify): a bfloat16 ≥ 0 orders as its bits, so a block's
	// maximum is an integer max, and up16 is monotone, so it is the
	// rounded maximum.
	grid, up := make([]uint32, (maxTF+1)*classes), make([]uint16, (maxTF+1)*classes)
	keys := buf[:0] // class<<16 | tf of each list's pairs, list after list
	at := make([]int, 1, len(e.postings)+1)
	nblk := (len(e.quality) + blockIDs - 1) / blockIDs
	cols := make([]float64, 2*nblk) // one allocation for both columns
	e.qblk, e.qmax = cols[:nblk:nblk], cols[nblk:]
	for b, m := nblk-1, math.Inf(-1); b >= 0; b-- {
		e.qblk[b] = slices.Max(e.quality[b*blockIDs : min((b+1)*blockIDs, len(e.quality))])
		m = max(m, e.qblk[b]) // a NaN stays: no bound
		e.qmax[b] = m
	}
	e.blkImp = make([]uint16, len(e.postings)*nblk)
	docs := int64(len(e.quality))
	for t, ps := range e.postings {
		first, prev := len(keys), int64(-1)
		bm, blk, m := e.blocks(t), uint32(0), uint16(0)
		for i := range ps {
			p := &ps[i]
			if d := int64(p.Doc); d <= prev || d >= docs {
				return fmt.Errorf("term %d: postings not in ascending doc id below %d", t, docs)
			}
			prev = int64(p.Doc)
			cell := int(p.TF)*classes + int(p.pair)
			if int(grid[cell]) <= first { // the list's first posting with this pair
				if len(keys)-first == 1<<16 {
					return fmt.Errorf("term %d: more than %d distinct (tf, length) pairs", t, 1<<16)
				}
				keys = append(keys, uint32(p.pair)<<16|uint32(p.TF))
				grid[cell] = uint32(len(keys))
				v := e.impact(t, keys[len(keys)-1], norm)
				if !(v >= 0) {
					v = math.Inf(1)
				}
				up[cell] = up16(v)
			}
			p.pair = uint16(int(grid[cell]) - 1 - first)
			b := p.Doc / blockIDs
			if b != blk {
				m = 0
			}
			blk, m = b, max(m, up[cell])
			bm[b] = m // the block's maximum so far: no branch on the block's end
		}
		at = append(at, len(keys))
	}
	vals := make([]float64, len(keys)+len(e.postings)) // the tables, then maxImp
	e.imp, e.impAt, e.maxImp = vals[:len(keys):len(keys)], at, vals[len(keys):]
	for t := range e.postings {
		for i := at[t]; i < at[t+1]; i++ {
			e.imp[i] = e.impact(t, keys[i], norm)
			if e.maxImp[t] = max(e.maxImp[t], e.imp[i]); !(e.imp[i] >= 0) {
				e.maxImp[t] = math.Inf(1) // a negative or NaN idf: never certify
			}
		}
	}
	return nil
}

// impact is Search's BM25 value of term t for a pair, class<<16 | tf.
func (e *Engine) impact(t int, pair uint32, norm []float64) float64 {
	tf := float64(uint16(pair))
	return e.idf[t] * tf * (bm25K1 + 1) / (tf + norm[pair>>16])
}

// up16 is the least bfloat16 (a float32's upper half) at or above x, for
// x >= 0 or +Inf.
func up16(x float64) uint16 {
	if x > math.MaxFloat32 {
		return 0x7f80 // +Inf
	}
	u := uint16(math.Float32bits(float32(x)) >> 16)
	if bf16(u) < x {
		u++
	}
	return u
}

// bf16 is a bfloat16's value.
func bf16(u uint16) float64 { return float64(math.Float32frombits(uint32(u) << 16)) }

// blocks is term t's row of per-block impact maxima.
func (e *Engine) blocks(t int) []uint16 {
	n := len(e.qblk)
	return e.blkImp[t*n : (t+1)*n]
}

// table is term t's impact table.
func (e *Engine) table(t int) []float64 { return e.imp[e.impAt[t]:e.impAt[t+1]] }

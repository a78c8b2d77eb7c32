package search

import (
	"fmt"
	"math"
	"slices"
)

// maxGrid bounds buildImpacts' scratch grid, one cell per (tf, length
// class) and 12 bytes a cell: 1.5 MB. NewEngine's grid is at most 384 ×
// 256 cells.
const maxGrid = 1 << 17

// buildImpacts derives every term's impact table and points each
// posting's pair at its entry. On entry a posting's pair holds its
// document's length class, an index into lens, and no tf exceeds maxTF;
// on return table(t) holds one value per distinct (tf, class) of list t,
// each by Search's BM25 expression for that tf and length, so a scan's
// quality[p.Doc] + table(t)[p.pair] is Search's score bit for bit
// without its division. The tables are one exactly sized array, end to
// end, with Scan.Final's bounds beside them: each term's largest impact
// (+Inf if one is < 0 or NaN); the largest |quality| (qabs); per
// blockIDs-id block the largest quality in it (qblk) and at or after it
// (qmax, NaN if a quality is), and per group of groupBlocks blocks the
// largest in it (qgrp); and each term's cell in each block and group
// (blocks, putCell). The pairs are gathered in buf's backing array: a
// list has no more distinct pairs than postings, so a buf of a capacity
// of at least every list's length summed (NewEngine's spent entries)
// never grows. Refused: a list out of ascending doc id or past the
// corpus, one with more distinct pairs than a 16-bit index reaches, and
// a grid over maxGrid cells.
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
	// list's, and no cell is ever cleared. val holds the pair's impact in
	// the current list, +Inf if it is < 0 or NaN (never certify).
	grid, val := make([]uint32, (maxTF+1)*classes), make([]float64, (maxTF+1)*classes)
	keys := buf[:0] // class<<16 | tf of each list's pairs, list after list
	at := make([]int, 1, len(e.postings)+1)
	nblk := (len(e.quality) + blockIDs - 1) / blockIDs
	ngrp := (nblk + groupBlocks - 1) / groupBlocks
	cols := make([]float64, 2*nblk+ngrp) // one allocation for the three columns
	e.qblk, e.qmax, e.qgrp, e.qabs = cols[:nblk:nblk], cols[nblk:2*nblk:2*nblk], cols[2*nblk:], 0
	for b, m := nblk-1, math.Inf(-1); b >= 0; b-- {
		e.qblk[b] = slices.Max(e.quality[b*blockIDs : min((b+1)*blockIDs, len(e.quality))])
		m = max(m, e.qblk[b]) // a NaN stays: no bound
		e.qmax[b] = m
	}
	for g := range e.qgrp {
		e.qgrp[g] = slices.Max(e.qblk[g*groupBlocks : min((g+1)*groupBlocks, nblk)])
	}
	for _, q := range e.quality {
		e.qabs = max(e.qabs, math.Abs(q)) // a NaN stays: no joint bound
	}
	e.blkImp = make([]uint32, len(e.postings)*(nblk+ngrp))
	for i := range e.blkImp {
		e.blkImp[i] = noPosting
	}
	docs := int64(len(e.quality))
	for t, ps := range e.postings {
		first, prev := len(keys), int64(-1)
		// The block's largest impact and quality + impact so far, rounded
		// into the block's cell once, when the list leaves the block.
		bm, blk, mi, mj := e.blocks(t), uint32(0), 0.0, math.Inf(-1)
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
				val[cell] = v
			}
			p.pair = uint16(int(grid[cell]) - 1 - first)
			if b := p.Doc / blockIDs; b != blk {
				if i > 0 {
					putCell(bm, nblk, int(blk), e.qblk[blk], mi, mj)
				}
				blk, mi, mj = b, 0, math.Inf(-1)
			}
			v := val[cell]
			mi, mj = max(mi, v), max(mj, e.quality[p.Doc]+v)
		}
		if len(ps) > 0 {
			putCell(bm, nblk, int(blk), e.qblk[blk], mi, mj)
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

// noPosting is the cell of a block a term has no posting in: largest
// impact 0, gain +Inf.
const noPosting = 0x7f80

// putCell stores term row's cell for block b and folds it into its
// group's cell, which keeps its blocks' largest hi and least gain (a
// bfloat16 ≥ 0 orders as its bits). The cell is made from the largest
// impact mi (+Inf for a negative or NaN one) and the largest quality +
// impact mj over the term's postings in the block: its high half is mi
// rounded up to a bfloat16 (hi), its low half the gain, a bfloat16 at or
// below qblk + bf16(hi) − mj in exact arithmetic — how far the list's
// best quality + impact in the block lies below the per-block bound's
// pairing of the block's best quality with its best impact. The slack
// covers the rounding of the two sums and of mj, each within half an ulp
// of a magnitude the slack counts; a NaN or negative gain is 0 (none).
func putCell(row []uint32, nblk, b int, qblk, mi, mj float64) {
	hi := up16(mi)
	h := bf16(hi)
	gain := qblk + h - mj
	gain -= 0x1p-51 * (math.Abs(qblk) + h + math.Abs(mj))
	cell := uint32(hi)<<16 | uint32(down16(gain))
	row[b] = cell
	g := &row[nblk+b/groupBlocks]
	*g = max(*g&^0xffff, cell&^0xffff) | min(*g&0xffff, cell&0xffff)
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

// down16 is the greatest bfloat16 at or below x, at most the largest
// finite one, and 0 if x is not > 0.
func down16(x float64) uint16 {
	if !(x > 0) {
		return 0
	}
	if x >= math.MaxFloat32 {
		return 0x7f7f
	}
	u := uint16(math.Float32bits(float32(x)) >> 16)
	if bf16(u) > x {
		u--
	}
	return u
}

// bf16 is a bfloat16's value.
func bf16(u uint16) float64 { return float64(math.Float32frombits(uint32(u) << 16)) }

// blocks is term t's row of cells (putCell): one per block, then one per
// group of groupBlocks blocks.
func (e *Engine) blocks(t int) []uint32 {
	n := len(e.qblk) + len(e.qgrp)
	return e.blkImp[t*n : (t+1)*n]
}

// table is term t's impact table.
func (e *Engine) table(t int) []float64 { return e.imp[e.impAt[t]:e.impAt[t+1]] }

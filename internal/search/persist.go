package search

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Index persistence: a compact deterministic binary format for a built
// corpus. greenserve -save-index writes one; nothing in the tree serves
// from one — every server builds its corpus — so ReadEngine's callers
// are the tests and the fuzzer, and it treats its input as foreign
// bytes. Layout, little-endian:
//
//	magic "GRNIDX1\n"
//	config: docs, vocab, avgDocLen, stopTerms (uint32), qualityWeight,
//	        seed (int64), avgLen (float64)
//	docLen:  docs x uint32
//	quality: docs x float64
//	idf:     vocab x float64
//	postings: per term, uint32 count then count x (uint32 doc, uint16 tf)
//
// Postings are encoded field by field: a Posting's impact index is
// derived on load (deriveImpacts), not part of the format.

var indexMagic = [8]byte{'G', 'R', 'N', 'I', 'D', 'X', '1', '\n'}

// ErrBadIndex is returned when decoding fails structurally.
var ErrBadIndex = errors.New("search: malformed index data")

// WriteTo serializes the engine. It implements io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw) // keeps the first error; Flush reports it
	le := binary.LittleEndian
	var b [8]byte
	u32 := func(v uint32) { bw.Write(le.AppendUint32(b[:0], v)) }
	u64 := func(v uint64) { bw.Write(le.AppendUint64(b[:0], v)) }

	bw.Write(indexMagic[:])
	for _, v := range []int{e.cfg.Docs, e.cfg.VocabSize, e.cfg.AvgDocLen, e.cfg.StopTerms} {
		u32(uint32(v))
	}
	u64(math.Float64bits(e.cfg.QualityWeight))
	u64(uint64(e.cfg.Seed))
	u64(math.Float64bits(e.avgLen))
	for _, l := range e.docLen {
		u32(l)
	}
	for _, col := range [][]float64{e.quality, e.idf} {
		for _, v := range col {
			u64(math.Float64bits(v))
		}
	}
	for _, ps := range e.postings {
		u32(uint32(len(ps)))
		for _, p := range ps {
			bw.Write(le.AppendUint16(le.AppendUint32(b[:0], p.Doc), p.TF))
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// plausible reports whether every value is a number (not NaN or ±Inf) of
// a magnitude a real index could hold. A NaN score is outside the order
// the top-N heap and the scans' floor test rely on; with these bounds,
// and a positive average length, no score can overflow into one.
func plausible(vs ...float64) bool {
	for _, v := range vs {
		if !(math.Abs(v) <= 1e100) {
			return false
		}
	}
	return true
}

// ReadEngine deserializes an engine written by WriteTo, validating
// structure as it goes. It allocates in proportion to the bytes it has
// read — columns and lists grow as they are read, not to the sizes the
// header claims — so a short input fails on its end, not on a make.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var buf [40]byte
	var err error // the first read error; next returns stale bytes after it
	next := func(n int) []byte {
		if err == nil {
			_, err = io.ReadFull(br, buf[:n])
		}
		return buf[:n]
	}

	if magic := [8]byte(next(8)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndex, err)
	} else if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndex)
	}
	h := next(40)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadIndex, err)
	}
	docs, vocab := le.Uint32(h), le.Uint32(h[4:])
	qualityWeight, avgLen := math.Float64frombits(le.Uint64(h[16:])), math.Float64frombits(le.Uint64(h[32:]))
	const maxReasonable = 2_000_000
	if docs == 0 || vocab == 0 || docs > maxReasonable || vocab > maxReasonable {
		return nil, fmt.Errorf("%w: implausible sizes (%d docs, %d terms)", ErrBadIndex, docs, vocab)
	}
	if !plausible(qualityWeight, avgLen) || avgLen <= 0 {
		return nil, fmt.Errorf("%w: implausible quality weight %v or average length %v", ErrBadIndex, qualityWeight, avgLen)
	}
	e := &Engine{
		cfg: Config{
			Docs: int(docs), VocabSize: int(vocab), AvgDocLen: int(le.Uint32(h[8:])),
			StopTerms: int(le.Uint32(h[12:])), QualityWeight: qualityWeight, Seed: int64(le.Uint64(h[24:])),
		},
		avgLen: avgLen,
	}
	f64 := func() float64 { return math.Float64frombits(le.Uint64(next(8))) }
	for d := uint32(0); d < docs && err == nil; d++ {
		e.docLen = append(e.docLen, le.Uint32(next(4)))
	}
	for d := uint32(0); d < docs && err == nil; d++ {
		e.quality = append(e.quality, f64())
	}
	for t := uint32(0); t < vocab && err == nil; t++ {
		e.idf = append(e.idf, f64())
	}
	if err != nil {
		return nil, fmt.Errorf("%w: doc lengths, quality or idf: %v", ErrBadIndex, err)
	}
	if !plausible(e.quality...) || !plausible(e.idf...) {
		return nil, fmt.Errorf("%w: non-finite or implausible quality or idf", ErrBadIndex)
	}
	for t := uint32(0); t < vocab; t++ {
		n := le.Uint32(next(4))
		if err == nil && n > docs {
			return nil, fmt.Errorf("%w: term %d has %d postings for %d docs", ErrBadIndex, t, n, docs)
		}
		var ps []Posting
		for ; n > 0 && err == nil; n-- {
			rec := next(6)
			ps = append(ps, Posting{Doc: le.Uint32(rec), TF: le.Uint16(rec[4:])})
		}
		if err != nil {
			return nil, fmt.Errorf("%w: postings: %v", ErrBadIndex, err)
		}
		e.postings = append(e.postings, ps)
	}
	// Reject trailing garbage.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data", ErrBadIndex)
	}
	if err := e.deriveImpacts(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndex, err)
	}
	return e, nil
}

package search

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Index persistence: a compact deterministic binary format so a built
// corpus can be written once and served from disk (greenserve warm
// starts). Layout, little-endian:
//
//	magic "GRNIDX1\n"
//	config: docs, vocab, avgDocLen, stopTerms (uint32), qualityWeight,
//	        seed (int64), avgLen (float64)
//	docLen:  docs x uint32
//	quality: docs x float64
//	idf:     vocab x float64
//	postings: per term, uint32 count then count x (uint32 doc, uint16 tf)

var indexMagic = [8]byte{'G', 'R', 'N', 'I', 'D', 'X', '1', '\n'}

// ErrBadIndex is returned when decoding fails structurally.
var ErrBadIndex = errors.New("search: malformed index data")

// WriteTo serializes the engine. It implements io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if err := write(indexMagic); err != nil {
		return cw.n, err
	}
	hdr := []any{
		uint32(e.cfg.Docs), uint32(e.cfg.VocabSize),
		uint32(e.cfg.AvgDocLen), uint32(e.cfg.StopTerms),
		e.cfg.QualityWeight, e.cfg.Seed, e.avgLen,
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return cw.n, err
		}
	}
	for _, l := range e.docLen {
		if err := write(uint32(l)); err != nil {
			return cw.n, err
		}
	}
	if err := write(e.quality); err != nil {
		return cw.n, err
	}
	if err := write(e.idf); err != nil {
		return cw.n, err
	}
	for _, ps := range e.postings {
		if err := write(uint32(len(ps))); err != nil {
			return cw.n, err
		}
		if err := write(ps); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
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
// structure as it goes.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [8]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndex, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndex)
	}
	var docs, vocab, avgDocLen, stopTerms uint32
	var qualityWeight, avgLen float64
	var seed int64
	for _, v := range []any{&docs, &vocab, &avgDocLen, &stopTerms,
		&qualityWeight, &seed, &avgLen} {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadIndex, err)
		}
	}
	const maxReasonable = 2_000_000
	if docs == 0 || vocab == 0 || docs > maxReasonable || vocab > maxReasonable {
		return nil, fmt.Errorf("%w: implausible sizes (%d docs, %d terms)", ErrBadIndex, docs, vocab)
	}
	if !plausible(qualityWeight, avgLen) || avgLen <= 0 {
		return nil, fmt.Errorf("%w: implausible quality weight %v or average length %v", ErrBadIndex, qualityWeight, avgLen)
	}
	e := &Engine{
		cfg: Config{
			Docs: int(docs), VocabSize: int(vocab), AvgDocLen: int(avgDocLen),
			StopTerms: int(stopTerms), QualityWeight: qualityWeight, Seed: seed,
		},
		avgLen:   avgLen,
		docLen:   make([]int, docs),
		quality:  make([]float64, docs),
		idf:      make([]float64, vocab),
		postings: make([][]Posting, vocab),
	}
	lens := make([]uint32, docs)
	if err := read(lens); err != nil {
		return nil, fmt.Errorf("%w: doc lengths: %v", ErrBadIndex, err)
	}
	for i, l := range lens {
		e.docLen[i] = int(l)
	}
	if err := read(e.quality); err != nil {
		return nil, fmt.Errorf("%w: quality: %v", ErrBadIndex, err)
	}
	if err := read(e.idf); err != nil {
		return nil, fmt.Errorf("%w: idf: %v", ErrBadIndex, err)
	}
	if !plausible(e.quality...) || !plausible(e.idf...) {
		return nil, fmt.Errorf("%w: non-finite or implausible quality or idf", ErrBadIndex)
	}
	for t := range e.postings {
		var n uint32
		if err := read(&n); err != nil {
			return nil, fmt.Errorf("%w: postings count: %v", ErrBadIndex, err)
		}
		if n > docs {
			return nil, fmt.Errorf("%w: term %d has %d postings for %d docs", ErrBadIndex, t, n, docs)
		}
		if n == 0 {
			continue
		}
		ps := make([]Posting, n)
		if err := read(ps); err != nil {
			return nil, fmt.Errorf("%w: postings: %v", ErrBadIndex, err)
		}
		// Validate ordering and ranges.
		prev := int64(-1)
		for _, p := range ps {
			if int64(p.Doc) <= prev || p.Doc >= docs {
				return nil, fmt.Errorf("%w: term %d postings unordered or out of range", ErrBadIndex, t)
			}
			prev = int64(p.Doc)
		}
		e.postings[t] = ps
	}
	// Reject trailing garbage.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data", ErrBadIndex)
	}
	e.packRecs()
	return e, nil
}

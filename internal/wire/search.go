package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The two /search bodies and their hand-rolled codecs. encoding/json
// walks a value reflectively and allocates per call; the warm paths —
// a worker encoding one reply, a coordinator parsing N of them and
// encoding the merged page — instead append into and parse out of
// pooled buffers. Encoder output is byte-identical to encoding/json
// for these shapes (field order follows the struct, HTML characters
// escape the same way, a trailing newline matches Encoder.Encode); the
// equivalence tables and FuzzSearchReply hold both directions to that.

// SearchReply is the worker /search JSON shape — one worker's ranked
// page, or one shard's partial of it.
type SearchReply struct {
	Query string `json:"query"`
	Docs  []int  `json:"docs"`
	// Scores carries the exact per-doc scores of Docs, emitted only when
	// the request asks (scores=1): a coordinator merging shard partials
	// ranks on exact scores so the merged page is byte-identical to the
	// unsharded engine's.
	Scores        ScoreBits `json:"score_bits,omitempty"`
	DocsScored    int       `json:"docs_scored"`
	Approximated  bool      `json:"approximated"`
	MonitoredScan bool      `json:"monitored"`
	// Degraded marks a response whose scan was cut short at the request
	// deadline: the results are the best scored so far, not the
	// controller's chosen approximation level.
	Degraded bool `json:"degraded,omitempty"`
}

// AppendJSON appends r encoded as JSON (plus the Encoder's trailing
// newline) to b.
func (r *SearchReply) AppendJSON(b []byte) []byte {
	b = append(b, `{"query":`...)
	b = appendJSONString(b, r.Query)
	b = append(b, `,"docs":`...)
	b = appendInts(b, r.Docs)
	if len(r.Scores) > 0 { // omitempty: nil and empty both drop the field
		b = append(b, `,"score_bits":`...)
		b = r.Scores.appendJSON(b)
	}
	b = append(b, `,"docs_scored":`...)
	b = strconv.AppendInt(b, int64(r.DocsScored), 10)
	b = append(b, `,"approximated":`...)
	b = strconv.AppendBool(b, r.Approximated)
	b = append(b, `,"monitored":`...)
	b = strconv.AppendBool(b, r.MonitoredScan)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}', '\n')
}

// ScoreBits is a page's exact scores. Only the coordinator reads them,
// and it needs them bit for bit, so each crosses the wire as its IEEE-754
// bit pattern written as a decimal integer: exact by construction, and an
// integer append and parse per score where the shortest decimal that
// round-trips cost a float format and a float parse.
type ScoreBits []float64

func (s ScoreBits) appendJSON(b []byte) []byte {
	b = append(b, '[')
	for i, f := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, math.Float64bits(f), 10)
	}
	return append(b, ']')
}

// MarshalJSON and UnmarshalJSON give encoding/json the same rendering,
// so a reply decoded that way cannot read bit patterns as scores.
func (s ScoreBits) MarshalJSON() ([]byte, error) { return s.appendJSON(nil), nil }

func (s *ScoreBits) UnmarshalJSON(b []byte) error {
	c := jsonCursor{b: b}
	out, err := c.parseScoreBits((*s)[:0])
	if err == nil {
		*s = out
	}
	return err
}

// errMalformed is every structural failure of a reply body, truncation
// included: to the coordinator they are all one replica failure.
var errMalformed = errors.New("wire: malformed search reply")

// ParseJSON parses a worker /search body into r, reusing the capacity
// of r.Docs and r.Scores. It is the inverse of AppendJSON for a scored
// reply — ParseJSON(AppendJSON(x)) == x except Query, which is skipped:
// the coordinator echoes its own copy and a decoded string would be the
// parse's only allocation. It is deliberately strict about what the
// merge depends on: docs and scores must be parallel (the coordinator
// always asks for scores=1), and a truncated or garbled body (the chaos
// harness produces both) must surface as an error that counts against
// the replica, never as a silently wrong merge. Unknown fields are
// skipped, so the reply can grow without breaking a fleet mid-rollout.
func (r *SearchReply) ParseJSON(body []byte) error {
	*r = SearchReply{Docs: r.Docs[:0], Scores: r.Scores[:0]}
	c := jsonCursor{b: body}
	if err := c.expect('{'); err != nil {
		return err
	}
	c.skipWS()
	for first := true; c.peek() != '}'; first = false {
		if !first {
			if err := c.expect(','); err != nil {
				return err
			}
		}
		key, err := c.parseString()
		if err != nil {
			return err
		}
		if err := c.expect(':'); err != nil {
			return err
		}
		switch string(key) {
		case "docs":
			var more bool
			for more, err = c.arrayOpen(); more && err == nil; more, err = c.arrayNext() {
				var d int
				if d, err = c.parseInt(); err != nil {
					break
				}
				r.Docs = append(r.Docs, d)
			}
		case "score_bits":
			r.Scores, err = c.parseScoreBits(r.Scores)
		case "docs_scored":
			r.DocsScored, err = c.parseInt()
		case "approximated":
			r.Approximated, err = c.parseBool()
		case "monitored":
			r.MonitoredScan, err = c.parseBool()
		case "degraded":
			r.Degraded, err = c.parseBool()
		default:
			err = c.skipValue()
		}
		if err != nil {
			return err
		}
		c.skipWS()
		if ch := c.peek(); ch != ',' && ch != '}' {
			return errMalformed
		}
	}
	c.i++ // the closing brace
	c.skipWS()
	if c.i != len(c.b) {
		return errMalformed // trailing garbage beyond the object
	}
	if len(r.Docs) != len(r.Scores) {
		return fmt.Errorf("wire: search reply docs/score_bits mismatch (%d docs, %d scores)", len(r.Docs), len(r.Scores))
	}
	return nil
}

// Page is the coordinator /search JSON shape. Degraded is always
// emitted (clients branch on it); FailedShards attributes partial
// coverage.
type Page struct {
	Query        string   `json:"query"`
	Docs         []int    `json:"docs"`
	DocsScored   int      `json:"docs_scored"`
	Degraded     bool     `json:"degraded"`
	ShardsOK     int      `json:"shards_ok"`
	ShardsTotal  int      `json:"shards_total"`
	FailedShards []string `json:"failed_shards,omitempty"`
}

// AppendJSON appends p encoded as JSON (plus the Encoder's trailing
// newline) to b.
func (p *Page) AppendJSON(b []byte) []byte {
	b = append(b, `{"query":`...)
	b = appendJSONString(b, p.Query)
	b = append(b, `,"docs":`...)
	b = appendInts(b, p.Docs)
	b = append(b, `,"docs_scored":`...)
	b = strconv.AppendInt(b, int64(p.DocsScored), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, p.Degraded)
	b = append(b, `,"shards_ok":`...)
	b = strconv.AppendInt(b, int64(p.ShardsOK), 10)
	b = append(b, `,"shards_total":`...)
	b = strconv.AppendInt(b, int64(p.ShardsTotal), 10)
	if len(p.FailedShards) > 0 {
		b = append(b, `,"failed_shards":[`...)
		for i, s := range p.FailedShards {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, s)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// The append primitives under the encoders and the cursor under the
// parser.

// appendInts appends ds as a JSON array; nil is [] like any empty page
// (encoding/json would say null, and a page would encode two ways
// depending on which pooled scratch served it).
func appendInts(b []byte, ds []int) []byte {
	b = append(b, '[')
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with HTML escaping on (its default): quotes,
// backslashes, control characters and <, >, & escape, valid multi-byte
// UTF-8 passes through. strconv.AppendQuote is NOT a substitute — it
// emits Go syntax like \x7f, which is invalid JSON. The rare string
// encoding/json rewrites beyond that — invalid UTF-8 (a %ff in a query)
// becomes U+FFFD, U+2028 and U+2029 escape — goes through encoding/json
// itself, so the echo of a hostile query is still valid JSON.
func appendJSONString(b []byte, s string) []byte {
	mark, exotic := len(b), false
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			exotic = exotic || c >= utf8.RuneSelf
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b', '\t', '\n', '\f', '\r':
			b = append(b, '\\', "btn-fr"[c-'\b']) // 8..13, \v (11) has no short form
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	if exotic && (!utf8.ValidString(s) || strings.ContainsAny(s, "\u2028\u2029")) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b[:mark], q...)
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonCursor is a minimal strict-enough JSON scanner over a byte slice.
type jsonCursor struct {
	b []byte
	i int
}

func (c *jsonCursor) peek() byte {
	if c.i >= len(c.b) {
		return 0
	}
	return c.b[c.i]
}

func (c *jsonCursor) skipWS() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

func (c *jsonCursor) expect(ch byte) error {
	c.skipWS()
	if c.peek() != ch {
		return errMalformed
	}
	c.i++
	return nil
}

// parseString returns the raw bytes between the quotes, escapes left
// unprocessed. The keys and values this parser routes on ("docs",
// "score_bits", …) never contain escapes; an escaped key simply fails to
// match any case and its value is skipped.
func (c *jsonCursor) parseString() ([]byte, error) {
	if err := c.expect('"'); err != nil {
		return nil, err
	}
	start := c.i
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case '\\':
			c.i += 2
		case '"':
			s := c.b[start:c.i]
			c.i++
			return s, nil
		default:
			c.i++
		}
	}
	return nil, errMalformed
}

// numberEnd returns the index one past the numeric token starting at i.
func (c *jsonCursor) numberEnd() int {
	j := c.i
	for j < len(c.b) {
		switch ch := c.b[j]; {
		case ch >= '0' && ch <= '9', ch == '-', ch == '+', ch == '.', ch == 'e', ch == 'E':
			j++
		default:
			return j
		}
	}
	return j
}

func (c *jsonCursor) parseInt() (int, error) {
	c.skipWS()
	j := c.numberEnd()
	if j == c.i {
		return 0, errMalformed
	}
	v, err := strconv.ParseInt(string(c.b[c.i:j]), 10, strconv.IntSize)
	if err != nil {
		return 0, errMalformed
	}
	c.i = j
	return int(v), nil
}

// parseScoreBits appends a score_bits array to scores. A pattern that is
// not a finite float64 — no engine sums to NaN or an infinity — is a
// malformed reply, like any other value the merge could not rank.
func (c *jsonCursor) parseScoreBits(scores ScoreBits) (ScoreBits, error) {
	more, err := c.arrayOpen()
	for ; more && err == nil; more, err = c.arrayNext() {
		c.skipWS()
		j := c.numberEnd()
		// string(…) here does not escape into ParseUint, so the conversion
		// stays on the stack for a token of at most twenty digits.
		bits, perr := strconv.ParseUint(string(c.b[c.i:j]), 10, 64)
		if perr != nil || bits>>52&0x7ff == 0x7ff {
			return scores, errMalformed
		}
		c.i = j
		scores = append(scores, math.Float64frombits(bits))
	}
	return scores, err
}

func (c *jsonCursor) parseBool() (bool, error) {
	c.skipWS()
	switch {
	case c.lit("true"):
		return true, nil
	case c.lit("false"):
		return false, nil
	}
	return false, errMalformed
}

// lit consumes the literal if it is next.
func (c *jsonCursor) lit(s string) bool {
	if len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// arrayOpen consumes the start of a JSON array — "null", "[]" or "[" —
// and reports whether an element follows.
func (c *jsonCursor) arrayOpen() (more bool, err error) {
	c.skipWS()
	if c.lit("null") {
		return false, nil
	}
	if err := c.expect('['); err != nil {
		return false, err
	}
	c.skipWS()
	if c.peek() == ']' {
		c.i++
		return false, nil
	}
	return true, nil
}

// arrayNext consumes the "," or "]" after an array element and reports
// whether another element follows.
func (c *jsonCursor) arrayNext() (more bool, err error) {
	c.skipWS()
	switch c.peek() {
	case ',':
		c.i++
		return true, nil
	case ']':
		c.i++
		return false, nil
	}
	return false, errMalformed
}

// skipValue skips one JSON value of any shape.
func (c *jsonCursor) skipValue() error {
	c.skipWS()
	if c.i >= len(c.b) {
		return errMalformed
	}
	switch c.b[c.i] {
	case '"':
		_, err := c.parseString()
		return err
	case '{', '[':
		depth := 0
		for c.i < len(c.b) {
			switch c.b[c.i] {
			case '"':
				if _, err := c.parseString(); err != nil {
					return err
				}
				continue // parseString advanced past the closing quote
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					c.i++
					return nil
				}
			}
			c.i++
		}
		return errMalformed
	default:
		if c.lit("true") || c.lit("false") || c.lit("null") {
			return nil
		}
		if j := c.numberEnd(); j > c.i {
			c.i = j
			return nil
		}
		return errMalformed
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// bitsJSON renders scores as a score_bits array, the way a worker does.
func bitsJSON(scores ...float64) string {
	return string(ScoreBits(scores).appendJSON(nil))
}

// TestScoreBits pins what a scored reply looks like on the wire and what
// the coordinator's parser makes of it: scores cross as the decimal of
// their IEEE-754 bits, every finite float64 survives the trip bit for
// bit, and a pattern that is not a finite score, or a score_bits array
// not parallel to docs, is a malformed reply.
func TestScoreBits(t *testing.T) {
	x := SearchReply{Query: "ocean tree", Docs: []int{3, 1, 4}, Scores: ScoreBits{9.5, 8.25, 1e-7},
		DocsScored: 42, Approximated: true}
	const golden = `{"query":"ocean tree","docs":[3,1,4],"score_bits":[4621537642612260864,4620833955170484224,4502148214488346440],` +
		`"docs_scored":42,"approximated":true,"monitored":false}` + "\n"
	enc := x.AppendJSON(nil)
	if string(enc) != golden {
		t.Errorf("scored reply encodes as\n%swant\n%s", enc, golden)
	}
	if want := encodeStd(t, &x); !bytes.Equal(enc, want) {
		t.Errorf("encoding/json renders the reply as\n%swant\n%s", want, enc)
	}
	var viaStd SearchReply
	if err := json.Unmarshal(enc, &viaStd); err != nil || !reflect.DeepEqual(viaStd, x) {
		t.Errorf("encoding/json decodes the reply as %+v (%v), want %+v", viaStd, err, x)
	}

	corners := ScoreBits{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e-7, 2.5e21, 123456789.123, math.Nextafter(1, 2)}
	y := SearchReply{Docs: make([]int, len(corners)), Scores: corners}
	var back SearchReply
	if err := back.ParseJSON(y.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	for i, f := range corners {
		if math.Float64bits(back.Scores[i]) != math.Float64bits(f) {
			t.Errorf("score %v (bits %#x) came back as %v (bits %#x)", f, math.Float64bits(f), back.Scores[i], math.Float64bits(back.Scores[i]))
		}
	}

	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1))
	for name, body := range map[string]string{
		"NaN":             fmt.Sprintf(`{"docs":[1],"score_bits":[%d]}`, nan),
		"signalling NaN":  fmt.Sprintf(`{"docs":[1],"score_bits":[%d]}`, inf|1),
		"+Inf":            fmt.Sprintf(`{"docs":[1],"score_bits":[%d]}`, inf),
		"-Inf":            fmt.Sprintf(`{"docs":[1],"score_bits":[%d]}`, inf|1<<63),
		"beyond 64 bits":  `{"docs":[1],"score_bits":[18446744073709551616]}`,
		"negative":        `{"docs":[1],"score_bits":[-1]}`,
		"a float":         `{"docs":[1],"score_bits":[9.5]}`,
		"a string":        `{"docs":[1],"score_bits":["1"]}`,
		"fewer than docs": `{"docs":[1,2],"score_bits":[1]}`,
		"more than docs":  `{"docs":[1],"score_bits":[1,2]}`,
		"missing":         `{"docs":[1]}`,
		"the old field":   `{"docs":[1],"scores":[9.5]}`,
	} {
		var r SearchReply
		if err := r.ParseJSON([]byte(body)); err == nil {
			t.Errorf("%s: ParseJSON accepted %s", name, body)
		}
	}
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"score_bits":[%d]}`, nan)), new(SearchReply)); err == nil {
		t.Error("encoding/json accepted a NaN pattern through UnmarshalJSON")
	}
}

// TestEmptyPageEncodesOneWay: a zero-result page is "docs":[] whether the
// slice behind it is nil (a fresh scratch, a zero value) or empty (a
// reused one), for the worker's reply and the coordinator's page alike.
func TestEmptyPageEncodesOneWay(t *testing.T) {
	reused := SearchReply{Docs: []int{7, 8}}
	reused.Docs = reused.Docs[:0]
	if zero, again := (&SearchReply{}).AppendJSON(nil), reused.AppendJSON(nil); !bytes.Equal(zero, again) || !bytes.Contains(zero, []byte(`"docs":[]`)) {
		t.Errorf("empty reply encodes as\n%sfrom a zero value and\n%sfrom a reused one, want \"docs\":[] in both", zero, again)
	}
	page := Page{Docs: reused.Docs}
	if zero, again := (&Page{}).AppendJSON(nil), page.AppendJSON(nil); !bytes.Equal(zero, again) || !bytes.Contains(zero, []byte(`"docs":[]`)) {
		t.Errorf("empty page encodes as\n%sfrom a zero value and\n%sfrom a reused one, want \"docs\":[] in both", zero, again)
	}
}

// encodeStd is the reference encoding of every /search body: what the
// handlers would write through encoding/json.
func encodeStd(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSearchReply is the one target for the whole hot protocol. Each
// input is read three ways:
//
//   - body as bytes off a socket: ParseJSON must not panic and must
//     never accept a reply whose docs and scores are not parallel;
//   - body as raw material for a reply (12 bytes a document: id, then
//     score bits) with flags choosing the booleans, nil-vs-empty docs
//     and whether scores ride along: AppendJSON must match encoding/json
//     byte for byte (but for nil docs, which are [] like empty ones where
//     encoding/json says null), a scored reply must survive ParseJSON(AppendJSON(x))
//     unchanged (Query aside, which the parser skips) unless one of its
//     scores is NaN or an infinity, when the parser must refuse it, and
//     the coordinator's Page built from the same material must match
//     encoding/json too;
//   - query as a raw URL query string: wherever url.ParseQuery accepts
//     it, RawParam must find the same first value for each of the three
//     parameter names.
//
// The seeds are the shapes the handlers emit and the bodies the chaos
// harness produces.
func FuzzSearchReply(f *testing.F) {
	doc := func(id int32, score float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(id))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(score))
	}
	f.Add([]byte(`{"query":"ocean tree","docs":[3,1,4],"score_bits":`+bitsJSON(9.5, 8.25, 1e-7)+`,"docs_scored":42,"approximated":true,"monitored":false}`+"\n"), "q=alpha+beta&mode=and", uint8(0))
	f.Add([]byte(`{"query":"quote \" and \\ done","future":{"nested":[1,{"x":"]"}]},"docs":[1],"maybe":null,"ratio":-1.5e-9,"flag":false,"score_bits":`+bitsJSON(2)+`,"docs_scored":3}`), "mode=and&q=x&scores=1", uint8(1))
	f.Add([]byte(`{"docs":null,"score_bits":null,"docs_scored":0}`), "q=%20hi%20&q=second", uint8(2))
	f.Add([]byte("{\n  \"docs\": [ 3 , 1 ],\n  \"score_bits\": [ 4621537642612260864, 4620693217682128896 ],\n  \"docs_scored\": 4\n}\n"), "q", uint8(4))
	f.Add([]byte(`{"docs":[3,1],"docs_scored":4}`), "qq=x&q=y&&=v", uint8(8))
	f.Add([]byte(`{"docs":[3,x],"score_bits":[--1],"docs_scored":4`), "q=%zz&mode=", uint8(16))
	f.Add([]byte("<html>502 bad gateway</html>"), "q=a=b&", uint8(31))
	f.Add(bytes.Join([][]byte{doc(3, 12.75), doc(1, 3.5)}, nil), `quote " backslash \ <script>&amp;`, uint8(16|1))
	f.Add(bytes.Join([][]byte{doc(-1, 0), doc(1<<30, -0.25), doc(5, 1e-7), doc(6, 2.5e21), doc(7, 1e21), doc(8, 123456789.123)}, nil), "tab\tnl\nbell\x01 héllo → 日本", uint8(16|4|2))
	f.Add([]byte{}, "", uint8(8))

	f.Fuzz(func(t *testing.T, body []byte, query string, flags uint8) {
		// 1. Arbitrary bytes into the parser.
		var parsed SearchReply
		if err := parsed.ParseJSON(body); err == nil && len(parsed.Docs) != len(parsed.Scores) {
			t.Fatalf("accepted %d docs with %d scores: %q", len(parsed.Docs), len(parsed.Scores), body)
		}

		// 2. A reply built from the same bytes, through both codecs.
		x := SearchReply{
			Query:         query,
			DocsScored:    len(body),
			Approximated:  flags&1 != 0,
			MonitoredScan: flags&2 != 0,
			Degraded:      flags&4 != 0,
		}
		if flags&8 == 0 {
			x.Docs = []int{}
		}
		scored, finite := flags&16 != 0, true
		for ; len(body) >= 12; body = body[12:] {
			x.Docs = append(x.Docs, int(int32(binary.LittleEndian.Uint32(body))))
			if scored {
				score := math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
				finite = finite && !math.IsNaN(score) && !math.IsInf(score, 0)
				x.Scores = append(x.Scores, score)
			}
		}
		enc := x.AppendJSON(nil)
		std := x
		if std.Docs == nil {
			std.Docs = []int{}
		}
		if want := encodeStd(t, &std); !bytes.Equal(enc, want) {
			t.Fatalf("reply encoding diverges from encoding/json:\n got %s\nwant %s", enc, want)
		}
		var y SearchReply
		switch err := y.ParseJSON(enc); {
		case !finite:
			if err == nil {
				t.Fatalf("accepted a score that is not finite: %s", enc)
			}
		case scored || len(x.Docs) == 0:
			if err != nil {
				t.Fatalf("own encoding rejected: %v\n%s", err, enc)
			}
			same := y.Query == "" && len(y.Docs) == len(x.Docs) && len(y.Scores) == len(x.Scores) &&
				y.DocsScored == x.DocsScored && y.Approximated == x.Approximated &&
				y.MonitoredScan == x.MonitoredScan && y.Degraded == x.Degraded
			for i := 0; same && i < len(x.Docs); i++ {
				same = y.Docs[i] == x.Docs[i]
			}
			for i := 0; same && i < len(x.Scores); i++ {
				same = math.Float64bits(y.Scores[i]) == math.Float64bits(x.Scores[i])
			}
			if !same {
				t.Fatalf("round trip changed the reply:\n in %+v\nout %+v\nvia %s", x, y, enc)
			}
		}
		page := Page{
			Query: query, Docs: x.Docs, DocsScored: x.DocsScored, Degraded: x.Degraded,
			ShardsOK: int(flags), ShardsTotal: len(x.Docs), FailedShards: strings.Fields(query),
		}
		got := page.AppendJSON(nil)
		page.Docs = std.Docs
		if want := encodeStd(t, &page); !bytes.Equal(got, want) {
			t.Fatalf("page encoding diverges from encoding/json:\n got %s\nwant %s", got, want)
		}

		// 3. The same string as a raw URL query.
		vals, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		// An escaped key ("%71=x") is a q to url.ParseQuery and no
		// parameter at all to RawParam, by contract; compare only where
		// every key is spelled literally.
		literal := !strings.ContainsAny(keysOf(query), "%+")
		for _, key := range []string{ParamQuery, "mode", ParamScores} {
			raw, ok := RawParam(query, key)
			if !literal {
				continue
			}
			if ok != (len(vals[key]) > 0) {
				t.Fatalf("RawParam(%q, %q) found=%v, url.ParseQuery has %q", query, key, ok, vals[key])
			}
			if !ok {
				continue
			}
			if val, err := url.QueryUnescape(raw); err != nil || val != vals[key][0] {
				t.Fatalf("RawParam(%q, %q) = %q, url.ParseQuery's first is %q", query, key, raw, vals[key][0])
			}
		}
	})
}

// keysOf returns the key part of every segment of a raw query string.
func keysOf(raw string) string {
	var keys []string
	for _, seg := range strings.Split(raw, "&") {
		key, _, _ := strings.Cut(seg, "=")
		keys = append(keys, key)
	}
	return strings.Join(keys, "&")
}

// budgetCases are POST /budget bodies, which come from outside the
// process. Bodies that are not one JSON object with a numeric level and
// no other field — NaN and Infinity are not JSON, an out-of-range
// literal does not fit a float64, an oversized body is cut at the limit
// — fail to decode; decodable non-positive levels are caught by LevelOK.
var budgetCases = []struct {
	name, body string
	decodes    bool
	levelOK    bool
	want       Budget
}{
	{"valid", `{"level":250}`, true, true, Budget{250}},
	{"exponent", ` {"level":1e3}`, true, true, Budget{1000}},
	{"unknown field", `{"level":5,"epoch":7}`, false, false, Budget{}},
	{"negative", `{"level":-5}`, true, false, Budget{-5}},
	{"zero", `{"level":0}`, true, false, Budget{}},
	{"named controller", `{"controller":"serve.match","level":5}`, false, false, Budget{}},
	{"NaN", `{"level":NaN}`, false, false, Budget{}},
	{"Infinity", `{"level":Infinity}`, false, false, Budget{}},
	{"out of range", `{"level":1e999}`, false, false, Budget{}},
	{"string level", `{"level":"5"}`, false, false, Budget{}},
	{"empty", ``, false, false, Budget{}},
	{"not an object", `[5]`, false, false, Budget{}},
	{"oversized", `{"level":5` + strings.Repeat(" ", 1<<16) + `}`, false, false, Budget{}},
}

func TestDecodeBudget(t *testing.T) {
	for _, c := range budgetCases {
		got, err := DecodeBudget(strings.NewReader(c.body))
		if (err == nil) != c.decodes {
			t.Errorf("%s: decode error = %v, want decodes=%v", c.name, err, c.decodes)
			continue
		}
		if err == nil && (got != c.want || got.LevelOK() != c.levelOK) {
			t.Errorf("%s: got %+v (LevelOK %v), want %+v (LevelOK %v)", c.name, got, got.LevelOK(), c.want, c.levelOK)
		}
	}
	for _, lvl := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if (Budget{Level: lvl}).LevelOK() {
			t.Errorf("LevelOK accepted %v", lvl)
		}
	}
}

// FuzzDecodeBudget: whatever arrives on POST /budget, DecodeBudget does
// not panic, never hands back a level that is NaN or infinite (so LevelOK
// is the only sanity check a handler needs), reads no more than its
// 64 KiB bound, and what it accepted survives its own re-encoding.
func FuzzDecodeBudget(f *testing.F) {
	for _, c := range budgetCases {
		f.Add([]byte(c.body))
	}
	// Whitespace bulk just under the bound: accepted.
	f.Add([]byte(`{"level":5` + strings.Repeat(" ", 1<<16-12) + `}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		r := bytes.NewReader(body)
		b, err := DecodeBudget(r)
		if read := len(body) - r.Len(); read > 1<<16 {
			t.Fatalf("read %d bytes of a %d-byte body, bound is %d", read, len(body), 1<<16)
		}
		if err != nil {
			return
		}
		if math.IsNaN(b.Level) || math.IsInf(b.Level, 0) {
			t.Fatalf("decoded level %v from %q", b.Level, body)
		}
		back, err := DecodeBudget(bytes.NewReader(encodeStd(t, b)))
		if err != nil || back != b {
			t.Fatalf("%+v re-encoded decodes as %+v (%v)", b, back, err)
		}
	})
}

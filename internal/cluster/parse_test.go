package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"green/internal/wire"
)

// bits renders scores as a worker's score_bits array.
func bits(scores ...float64) string {
	b, _ := json.Marshal(wire.ScoreBits(scores)) // MarshalJSON never fails
	return string(b)
}

func TestParseSearchReply(t *testing.T) {
	var out wire.SearchReply
	body := `{"query":"ocean tree","docs":[3,1,4],"score_bits":` + bits(9.5, 8.25, 1e-7) + `,` +
		`"docs_scored":42,"approximated":true,"monitored":false}` + "\n"
	if err := out.ParseJSON([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 3 || out.Docs[0] != 3 || out.Docs[2] != 4 {
		t.Errorf("docs = %v", out.Docs)
	}
	if len(out.Scores) != 3 || out.Scores[0] != 9.5 || out.Scores[2] != 1e-7 {
		t.Errorf("scores = %v", out.Scores)
	}
	if out.DocsScored != 42 || out.Degraded {
		t.Errorf("docsScored = %d, degraded = %v", out.DocsScored, out.Degraded)
	}

	// Reuse: a second parse into the same reply must fully reset it.
	body2 := `{"docs":[9],"score_bits":` + bits(-2.5) + `,"docs_scored":1,"degraded":true}`
	if err := out.ParseJSON([]byte(body2)); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0] != 9 || out.Scores[0] != -2.5 || !out.Degraded || out.DocsScored != 1 {
		t.Errorf("reused reply = %+v", out)
	}
}

// TestParseSearchReplySkipsUnknown: fields this parser does not route on
// — including ones with escapes, nested structure, and exotic numbers —
// are skipped, so worker response evolution does not break the fleet.
func TestParseSearchReplySkipsUnknown(t *testing.T) {
	var out wire.SearchReply
	body := `{"query":"quote \" and \\ done","future":{"nested":[1,{"x":"]"}]},` +
		`"docs":[1],"maybe":null,"ratio":-1.5e-9,"flag":false,"score_bits":` + bits(2) + `,"docs_scored":3}`
	if err := out.ParseJSON([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0] != 1 || out.Scores[0] != 2 || out.DocsScored != 3 {
		t.Errorf("reply = %+v", out)
	}
}

// TestParseSearchReplyNullArrays: "docs":null (the worker's empty-page
// encoding) parses as an empty partial.
func TestParseSearchReplyNullArrays(t *testing.T) {
	var out wire.SearchReply
	if err := out.ParseJSON([]byte(`{"docs":null,"score_bits":null,"docs_scored":0}`)); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 0 || len(out.Scores) != 0 {
		t.Errorf("reply = %+v", out)
	}
}

// TestParseSearchReplyRejectsGarbage: the bodies the chaos harness
// produces — truncation, bit-garbling, scores missing or mismatched —
// must all fail parsing, never merge silently.
func TestParseSearchReplyRejectsGarbage(t *testing.T) {
	valid := `{"docs":[3,1],"score_bits":` + bits(9.5, 8) + `,"docs_scored":4}`
	cases := map[string]string{
		"empty":            "",
		"truncated":        valid[:len(valid)/2],
		"missing scores":   `{"docs":[3,1],"docs_scored":4}`,
		"missing docs":     `{"score_bits":` + bits(9.5) + `,"docs_scored":4}`,
		"length mismatch":  `{"docs":[3,1],"score_bits":` + bits(9.5) + `,"docs_scored":4}`,
		"not json":         "<html>502 bad gateway</html>",
		"trailing garbage": valid + "{}",
		"bad int":          `{"docs":[3,x],"score_bits":[1,2],"docs_scored":4}`,
		"bad bits":         `{"docs":[3],"score_bits":[--1],"docs_scored":4}`,
		"unterminated key": `{"docs`,
		"garbled":          garble(valid),
	}
	for name, body := range cases {
		var out wire.SearchReply
		if err := out.ParseJSON([]byte(body)); err == nil {
			t.Errorf("%s: parse accepted %q", name, body)
		}
	}
}

func garble(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] ^= 0x5a
	}
	return string(b)
}

// TestParseSearchReplyWhitespace: encoding/json-style pretty output
// still parses (the parser is strict about structure, not layout).
func TestParseSearchReplyWhitespace(t *testing.T) {
	var out wire.SearchReply
	body := "{\n  \"docs\": [ 3 , 1 ],\n  \"score_bits\": " + strings.Replace(bits(9.5, 8), ",", " , ", 1) + ",\n  \"docs_scored\": 4\n}\n"
	if err := out.ParseJSON([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 2 || out.Scores[1] != 8 || out.DocsScored != 4 {
		t.Errorf("reply = %+v", out)
	}
}

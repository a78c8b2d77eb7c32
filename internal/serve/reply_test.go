package serve

import (
	"encoding/json"
	"testing"

	"green/internal/wire"
)

// TestAppendSearchJSONMatchesEncodingJSON pins the hand-rolled encoder
// to encoding/json byte for byte (plus the Encoder's trailing newline)
// across the response shapes the serve path emits, including the
// escaping corners: quotes, backslashes, control bytes, the HTML set
// (<, >, &), and multi-byte UTF-8.
func TestAppendSearchJSONMatchesEncodingJSON(t *testing.T) {
	cases := []wire.SearchReply{
		{Query: "alpha beta", Docs: []int{3, 1, 4}, DocsScored: 42, Approximated: true, MonitoredScan: false},
		{Query: "", Docs: nil, DocsScored: 0},
		{Query: "empty docs", Docs: []int{}, DocsScored: 1, MonitoredScan: true},
		{Query: "cut short", Docs: []int{9}, DocsScored: 7, Degraded: true},
		{Query: `quote " backslash \ done`, Docs: []int{0}, DocsScored: 1},
		{Query: "tab\tnewline\ncarriage\rbell\x01end", Docs: []int{1}, DocsScored: 2},
		{Query: "<script>&amp;</script>", Docs: []int{5, 6}, DocsScored: 3, Approximated: true},
		{Query: "héllo wörld → 日本", Docs: []int{-1, 1 << 30}, DocsScored: 1 << 20},
		{Query: "scored", Docs: []int{3, 1}, Scores: []float64{12.75, 3.5}, DocsScored: 9},
		{Query: "scored empty", Docs: []int{1}, Scores: []float64{}, DocsScored: 1},
		{Query: "scored corners", Docs: []int{1, 2, 3, 4, 5, 6},
			Scores: []float64{0, -0.25, 1e-7, 2.5e21, 1e21, 123456789.123}, DocsScored: 6, Degraded: true},
	}
	for _, r := range cases {
		got := r.AppendJSON(nil)
		if r.Docs == nil {
			r.Docs = []int{} // an empty page is [] either way; encoding/json would say null
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("query %q:\n got %s\nwant %s\\n", r.Query, got, want)
		}
	}
}

// TestAppendSearchJSONReusesBuffer checks the append contract: an
// adequately sized buffer is reused without allocating.
func TestAppendSearchJSONReusesBuffer(t *testing.T) {
	r := wire.SearchReply{Query: "warm", Docs: []int{1, 2, 3}, DocsScored: 30, Approximated: true}
	buf := r.AppendJSON(nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = r.AppendJSON(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("warm encode allocates %.1f times, want 0", allocs)
	}
}

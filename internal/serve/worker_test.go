package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"green/internal/search"
	"green/internal/wire"
)

// workerServer builds a small shard worker.
func workerServer(t *testing.T, index, count int) *Server {
	t.Helper()
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 3000,
		SampleInterval: 50, ShardIndex: index, ShardCount: count})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSearchScoresParam: scores=1 adds a score_bits array parallel to docs;
// without it the response shape is unchanged.
func TestSearchScoresParam(t *testing.T) {
	h := testServer(t).Handler()

	rec := get(t, h, "/search?q=ocean+tree&scores=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) == 0 {
		t.Fatal("no docs returned")
	}
	if len(resp.Scores) != len(resp.Docs) {
		t.Fatalf("scores len %d != docs len %d", len(resp.Scores), len(resp.Docs))
	}
	for i := 1; i < len(resp.Scores); i++ {
		if resp.Scores[i] > resp.Scores[i-1] {
			t.Fatalf("scores not non-increasing: %v", resp.Scores)
		}
	}

	rec = get(t, h, "/search?q=ocean+tree")
	if strings.Contains(rec.Body.String(), `"score_bits"`) {
		t.Errorf("scores emitted without scores=1: %s", rec.Body)
	}
	var plain wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Docs) != len(resp.Docs) {
		t.Fatalf("docs differ with/without scores: %v vs %v", plain.Docs, resp.Docs)
	}
	for i := range plain.Docs {
		if plain.Docs[i] != resp.Docs[i] {
			t.Fatalf("docs differ with/without scores: %v vs %v", plain.Docs, resp.Docs)
		}
	}
}

// TestSearchHandlerIdempotent is the retry safety regression: serving
// the same query repeatedly returns the same ranked page every time, and
// the only state the handler touches is monotonic counters plus the
// monitored-sampling stream. A coordinator's retry therefore cannot
// corrupt worker state.
func TestSearchHandlerIdempotent(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	var first wire.SearchReply
	for i := 0; i < 10; i++ {
		rec := get(t, h, "/search?q=river+stone&scores=1")
		if rec.Code != http.StatusOK {
			t.Fatalf("call %d: status %d", i, rec.Code)
		}
		var resp wire.SearchReply
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resp
			continue
		}
		if len(resp.Docs) != len(first.Docs) {
			t.Fatalf("call %d: %d docs, first had %d", i, len(resp.Docs), len(first.Docs))
		}
		for j := range resp.Docs {
			if resp.Docs[j] != first.Docs[j] || resp.Scores[j] != first.Scores[j] {
				t.Fatalf("call %d: page diverged: %v/%v vs %v/%v",
					i, resp.Docs, resp.Scores, first.Docs, first.Scores)
			}
		}
	}
	ops := s.Ops().Snapshot()
	if ops.Shed != 0 || ops.Degraded != 0 {
		t.Errorf("idempotent replays moved degraded/shed counters: %+v", ops)
	}
}

// TestModelEndpoint: /model serves the match loop's candidate settings
// with monotone predicted losses, in rows the coordinator accepts (no
// level past the corpus, though calibration has knots there).
func TestModelEndpoint(t *testing.T) {
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 3000,
		SampleInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s.Handler(), "/model")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp wire.Model
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.BaseLevel != float64(s.Engine().Docs()) {
		t.Fatalf("base_level = %v, want the corpus size %d", resp.BaseLevel, s.Engine().Docs())
	}
	if len(resp.Levels) == 0 {
		t.Fatal("no candidate levels")
	}
	if err := resp.Check(); err != nil {
		t.Fatalf("the coordinator would refuse these rows: %v", err)
	}
	for i, lvl := range resp.Levels {
		if lvl.Level <= 0 || lvl.PredLoss < 0 || lvl.Speedup <= 0 {
			t.Fatalf("level %d implausible: %+v", i, lvl)
		}
	}
}

// TestBudgetEndpoint: a pushed budget changes the live level, repushing
// is idempotent, and junk — a level past the corpus or a body naming a
// controller included — is a 400 that leaves the level where it was.
func TestBudgetEndpoint(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	for i := 0; i < 2; i++ { // idempotent
		rec := post(t, h, "/budget", `{"level":1234}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("push %d: status = %d: %s", i, rec.Code, rec.Body)
		}
	}
	if got := s.Loop().Level(); got != 1234 {
		t.Fatalf("level after push = %v, want 1234", got)
	}
	if got := s.Ops().Snapshot().BudgetPushes; got != 2 {
		t.Fatalf("budget_pushes = %d, want 2", got)
	}

	for _, body := range []string{
		`{"level":-5}`,
		`{"level":0}`,
		`{"level":1e9}`,
		`{"level":4001}`,
		`{"controller":"nope","level":10}`,
		`{"controller":"serve.match","level":10}`,
		`not json`,
	} {
		if rec := post(t, h, "/budget", body); rec.Code != http.StatusBadRequest {
			t.Errorf("budget body %q: status %d, want 400", body, rec.Code)
		}
	}
	if got := s.Loop().Level(); got != 1234 {
		t.Fatalf("level moved by rejected pushes: %v", got)
	}

	// The pushed level binds the next request the controller does not
	// monitor: its scan adds at most the level, rounded up to whole
	// scanBlock grants, to docs_scored, though the query matches more
	// (a corpus big enough for that).
	s = resilientServer(t, func(c *Config) { c.CorpusDocs = 20 * scanBlock })
	h = s.Handler()
	const level = 1234
	limit := int64((level + scanBlock - 1) / scanBlock * scanBlock)
	terms := s.termsOf("ocean tree light river")
	if _, matches := s.Engine().Search(search.Query{Terms: terms}, wire.PageSize, 0); int64(matches) <= limit {
		t.Fatalf("query matches %d documents, not more than the bound %d: the check tells nothing", matches, limit)
	}
	for try := 0; try < 200; try++ {
		if rec := post(t, h, "/budget", `{"level":1234}`); rec.Code != http.StatusOK {
			t.Fatalf("push: status = %d: %s", rec.Code, rec.Body)
		}
		before := decodeStats(t, h).DocsScored
		if searchReply(t, h, "ocean+tree+light+river").MonitoredScan {
			continue
		}
		if added := decodeStats(t, h).DocsScored - before; added > limit {
			t.Fatalf("an unmonitored request at level %d added %d to docs_scored, want at most %d", level, added, limit)
		}
		return
	}
	t.Fatal("no unmonitored request in 200")
}

// TestWorkerShardConfig: a shard worker's /config reflects the
// partition and its scans only ever return the shard's own documents.
func TestWorkerShardConfig(t *testing.T) {
	s := workerServer(t, 1, 3)
	rec := get(t, s.Handler(), "/search?q=ocean+tree+light&scores=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, d := range resp.Docs {
		if d%3 != 1 {
			t.Fatalf("doc %d does not belong to shard 1 of 3 (docs %v)", d, resp.Docs)
		}
	}
	if idx, count := s.Engine().Shard(); idx != 1 || count != 3 {
		t.Fatalf("engine shard = %d/%d, want 1/3", idx, count)
	}
}

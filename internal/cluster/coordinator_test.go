package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"green/internal/core"
	"green/internal/serve"
	"green/internal/wire"
)

// clusterOf builds a coordinator over a memTransport with the given
// per-replica handlers: shards[i][j] is shard i's replica j.
func clusterOf(t *testing.T, cfg Config, shards [][]http.Handler) (*Coordinator, *memTransport) {
	t.Helper()
	mt := newMemTransport()
	for i, replicas := range shards {
		spec := ShardSpec{Name: "s" + string(rune('0'+i))}
		for j, h := range replicas {
			base := "http://s" + string(rune('0'+i)) + "r" + string(rune('0'+j))
			mt.register(base, h)
			spec.Replicas = append(spec.Replicas, base)
		}
		cfg.Shards = append(cfg.Shards, spec)
	}
	cfg.Transport = mt
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co, mt
}

func decodeCoord(t *testing.T, body []byte) wire.Page {
	t.Helper()
	var resp wire.Page
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return resp
}

// TestScatterMergeEqualsUnsharded is the core federation property: a
// coordinator over three shard workers returns exactly the page an
// unsharded worker returns, query for query. /search has one contract:
// neither answers a mode parameter with another page.
func TestScatterMergeEqualsUnsharded(t *testing.T) {
	co := serveFleet(t)
	single, err := serve.New(fleetWorker)
	if err != nil {
		t.Fatal(err)
	}
	ch, sh := co.Handler(), single.Handler()

	for i, q := range []string{"ocean tree", "river stone light", "amber sky", "deep harbor mist", "x"} {
		path := "/search?q=" + url.QueryEscape(q)
		crec := get(t, ch, path)
		if i%2 == 1 {
			crec = get(t, ch, path+"&mode=and")
		}
		if crec.Code != http.StatusOK {
			t.Fatalf("%q: coordinator status %d: %s", q, crec.Code, crec.Body)
		}
		cresp := decodeCoord(t, crec.Body.Bytes())
		if cresp.Degraded || cresp.ShardsOK != 3 || cresp.ShardsTotal != 3 || len(cresp.FailedShards) != 0 {
			t.Fatalf("%q: healthy fleet answered degraded: %+v", q, cresp)
		}
		srec := get(t, sh, path)
		if i%2 == 0 {
			srec = get(t, sh, path+"&mode=and")
		}
		var sresp struct {
			Query      string `json:"query"`
			Docs       []int  `json:"docs"`
			DocsScored int    `json:"docs_scored"`
		}
		if err := json.Unmarshal(srec.Body.Bytes(), &sresp); err != nil {
			t.Fatal(err)
		}
		if cresp.Query != sresp.Query {
			t.Errorf("%q: echo %q != %q", q, cresp.Query, sresp.Query)
		}
		if len(cresp.Docs) != len(sresp.Docs) {
			t.Fatalf("%q: merged %v != unsharded %v", q, cresp.Docs, sresp.Docs)
		}
		for i := range cresp.Docs {
			if cresp.Docs[i] != sresp.Docs[i] {
				t.Fatalf("%q: merged %v != unsharded %v", q, cresp.Docs, sresp.Docs)
			}
		}
		// Precise shard scans partition the precise unsharded scan, so
		// even the work accounting must line up.
		if cresp.DocsScored != sresp.DocsScored {
			t.Errorf("%q: docs_scored %d != unsharded %d", q, cresp.DocsScored, sresp.DocsScored)
		}
	}
}

// TestQuorumPolicy: failures above quorum serve degraded 200s naming
// the failed shards; below quorum the request is refused 503 with
// Retry-After.
func TestQuorumPolicy(t *testing.T) {
	pageA := workerJSON(t, []int{30, 3}, []float64{9, 7}, false)
	pageB := workerJSON(t, []int{31, 4}, []float64{8, 6}, false)
	co, _ := clusterOf(t, Config{Quorum: 2, Retries: 0, RequestTimeout: time.Second}, [][]http.Handler{
		{okWorker(pageA)},
		{okWorker(pageB)},
		{failWorker(http.StatusInternalServerError)},
	})
	h := co.Handler()

	rec := get(t, h, "/search?q=hello")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	resp := decodeCoord(t, rec.Body.Bytes())
	if !resp.Degraded || resp.ShardsOK != 2 || resp.ShardsTotal != 3 {
		t.Fatalf("partial coverage not reported: %+v", resp)
	}
	if len(resp.FailedShards) != 1 || resp.FailedShards[0] != "s2" {
		t.Fatalf("failed_shards = %v, want [s2]", resp.FailedShards)
	}
	// Merge of the two answering shards, ranked on exact scores.
	want := []int{30, 31, 3, 4}
	if len(resp.Docs) != len(want) {
		t.Fatalf("docs = %v, want %v", resp.Docs, want)
	}
	for i := range want {
		if resp.Docs[i] != want[i] {
			t.Fatalf("docs = %v, want %v", resp.Docs, want)
		}
	}
	if got := co.ops.Snapshot().Degraded; got != 1 {
		t.Errorf("ops.degraded = %d, want 1", got)
	}

	// Two shards down: coverage 1 < quorum 2.
	co2, _ := clusterOf(t, Config{Quorum: 2, Retries: 0, RequestTimeout: time.Second}, [][]http.Handler{
		{okWorker(pageA)},
		{failWorker(http.StatusBadGateway)},
		{failWorker(http.StatusInternalServerError)},
	})
	rec = get(t, co2.Handler(), "/search?q=hello")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("below-quorum status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := co2.ops.Snapshot().Shed; got != 1 {
		t.Errorf("ops.shed = %d, want 1", got)
	}
}

// TestRetryPrefersAlternateReplica: with one replica hard-failing, every
// request still succeeds via the retry on the healthy replica, and the
// failing replica's breaker opens and isolates it.
func TestRetryPrefersAlternateReplica(t *testing.T) {
	bad := &countingWorker{inner: failWorker(http.StatusInternalServerError)}
	good := &countingWorker{inner: okWorker(workerJSON(t, []int{1}, []float64{5}, false))}
	co, _ := clusterOf(t, Config{Quorum: 1, Retries: 1,
		RequestTimeout: time.Second}, [][]http.Handler{{bad, good}})
	h := co.Handler()
	for i := 0; i < 10; i++ {
		rec := get(t, h, "/search?q=hello")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if resp := decodeCoord(t, rec.Body.Bytes()); resp.Degraded {
			t.Fatalf("request %d answered degraded with a healthy replica available", i)
		}
	}
	badRep := co.shards[0].replicas[0]
	if st := badRep.brk.Stats(); st.State == core.BreakerClosed {
		t.Errorf("failing replica's breaker still closed after %d failures", badRep.failures.Load())
	}
	// Isolation: once open, the bad replica stops receiving attempts.
	before := bad.count()
	for i := 0; i < 5; i++ {
		if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusOK {
			t.Fatalf("post-open request %d: status %d", i, rec.Code)
		}
	}
	if after := bad.count(); after-before > 1 { // at most a half-open probe
		t.Errorf("open breaker let %d requests through", after-before)
	}
	if good.count() == 0 {
		t.Error("healthy replica never served")
	}
	// A retried request is still one query, its success is not degraded,
	// and only the replica that failed is charged.
	if got := co.queries.Load(); got != 15 {
		t.Errorf("queries = %d, want 15 (a retry counted twice)", got)
	}
	if st := co.shards[0].replicas[1].brk.Stats(); st.State != core.BreakerClosed || st.ConsecutiveFailures != 0 {
		t.Errorf("healthy replica's breaker: %+v", st)
	}
	if ops := co.ops.Snapshot(); ops.Degraded != 0 || ops.Shed != 0 {
		t.Errorf("retried successes moved degradation counters: %+v", ops)
	}
}

// TestDeadlineBudget: a replica slower than the whole request budget
// cannot drag the request past its deadline — the shard fails, the
// fleet answers degraded within the budget.
func TestDeadlineBudget(t *testing.T) {
	page := workerJSON(t, []int{1}, []float64{5}, false)
	slow := slowWorker(2*time.Second, okWorker(page))
	co, _ := clusterOf(t, Config{Quorum: 1, Retries: 1,
		RequestTimeout: 150 * time.Millisecond}, [][]http.Handler{
		{slow},
		{okWorker(page)},
	})
	start := time.Now()
	rec := get(t, co.Handler(), "/search?q=hello")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	resp := decodeCoord(t, rec.Body.Bytes())
	if !resp.Degraded || len(resp.FailedShards) != 1 || resp.FailedShards[0] != "s0" {
		t.Fatalf("slow shard not reported: %+v", resp)
	}
	if elapsed > time.Second {
		t.Errorf("request took %v, budget was 150ms", elapsed)
	}
}

// TestCoordinatorStatsAndReadyz: the federated surfaces report
// per-shard health, and readiness degrades naming the unhealthy
// replicas.
func TestCoordinatorStatsAndReadyz(t *testing.T) {
	co, _ := clusterOf(t, Config{Quorum: 1, Retries: 1,
		RequestTimeout: time.Second}, [][]http.Handler{
		{failWorker(http.StatusInternalServerError), okWorker(workerJSON(t, []int{1}, []float64{5}, false))},
	})
	h := co.Handler()
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh fleet not ready: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 6; i++ {
		if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with an open breaker = %d, want 503: %s", rec.Code, rec.Body)
	}
	var rz wire.Ready
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || len(rz.Reasons) == 0 || !strings.Contains(rz.Reasons[0], "s0") {
		t.Fatalf("readyz reasons do not name the shard: %+v", rz)
	}

	rec = get(t, h, "/stats")
	var st wire.FleetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" || st.ShardsTotal != 1 || len(st.Shards) != 1 {
		t.Fatalf("stats shape: %+v", st)
	}
	row := st.Shards[0]
	if !row.Healthy { // the second replica still serves
		t.Errorf("shard with a live replica reported unhealthy")
	}
	if len(row.Replicas) != 2 || row.Replicas[0].Breaker == "closed" || row.Replicas[0].Failures == 0 {
		t.Errorf("replica rows do not isolate the failing replica: %+v", row.Replicas)
	}
	if row.Replicas[1].Breaker != "closed" {
		t.Errorf("healthy replica's breaker = %s", row.Replicas[1].Breaker)
	}
	if st.Queries != 6 {
		t.Errorf("queries = %d, want 6", st.Queries)
	}
}

// TestAppendCoordJSONMatchesEncodingJSON pins the gather path's
// hand-rolled encoder to encoding/json byte for byte.
func TestAppendCoordJSONMatchesEncodingJSON(t *testing.T) {
	cases := []wire.Page{
		{Query: "alpha beta", Docs: []int{3, 1, 4}, DocsScored: 42, ShardsOK: 3, ShardsTotal: 3},
		{Query: "", Docs: nil, Degraded: true, ShardsOK: 2, ShardsTotal: 3, FailedShards: []string{"s2"}},
		{Query: "empty", Docs: []int{}, ShardsOK: 1, ShardsTotal: 1},
		{Query: `esc " \ <&>`, Docs: []int{0}, DocsScored: 1, Degraded: true,
			ShardsOK: 1, ShardsTotal: 4, FailedShards: []string{"a", `b"b`, "c&c"}},
		{Query: "héllo → 日本", Docs: []int{-1, 1 << 30}, DocsScored: 1 << 20, ShardsOK: 9, ShardsTotal: 9},
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

// TestNewValidation: broken fleet layouts are rejected at construction.
func TestNewValidation(t *testing.T) {
	ok := []ShardSpec{{Name: "a", Replicas: []string{"http://x"}}}
	cases := []Config{
		{},
		{Shards: []ShardSpec{{Name: "a"}}},
		{Shards: []ShardSpec{ok[0], {Name: "a", Replicas: []string{"http://y"}}}},
		{Shards: ok, Quorum: 2},
		{Shards: ok, Quorum: -1},
		{Shards: ok, SLA: 1.5},
		{Shards: ok, SLA: math.NaN()},
		{Shards: []ShardSpec{{Name: "a", Replicas: []string{"http://[::1"}}}},
		{Shards: []ShardSpec{{Name: "a", Replicas: []string{"http://x", "localhost:8081"}}}},
		{Shards: []ShardSpec{{Name: "a", Replicas: []string{"/search"}}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{Shards: ok}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

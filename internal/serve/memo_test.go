package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"green/internal/chaos"
	"green/internal/search"
	"green/internal/wire"
)

// memoPaths is a repeated-query sequence, with and without scores: each
// query's first monitored request past its record point publishes the
// memo, the rest of the sequence reads it.
func memoPaths(queries int) []string {
	var paths []string
	for i := 0; i < queries; i++ {
		word := fmt.Sprintf("w%d+w%d", 11*i, 11*i+4)
		paths = append(paths, word, word+"&scores=1")
	}
	return paths
}

// TestMonitoredMemoMatchesReference is the differential test of the
// memoised precise page: a server whose monitored requests stop at their
// record point once the query's page is memoised, and one with no query
// cache and so no memo, whose monitored requests scan to the certificate
// every time, answer the same sequence. After every request the two must
// agree on the page, its scores, the flags, the controller's level and
// statistics (so every loss booked is the same), and the memo may only
// ever have scored fewer documents.
func TestMonitoredMemoMatchesReference(t *testing.T) {
	memo := certifyServer(t, nil)
	ref := certifyServer(t, func(c *Config) { c.QueryCacheSize = -1 })
	for _, s := range []*Server{memo, ref} {
		// Under the calibrated level, so stopping there loses pages.
		s.Loop().SetLevel(scanBlock / 4)
	}
	hm, hr := memo.Handler(), ref.Handler()
	lossyMemo := 0
	for round := 0; round < 4; round++ {
		for _, path := range memoPaths(6) {
			lossBefore := memo.Loop().State().LossSum
			memoBefore := memo.Ops().Snapshot().MonitoredMemo
			got, want := searchReply(t, hm, path), searchReply(t, hr, path)
			name := fmt.Sprintf("round %d q=%s", round, path)
			if !slices.Equal(got.Docs, want.Docs) || !slices.Equal(got.Scores, want.Scores) {
				t.Fatalf("%s: memo served %v %v, the reference %v %v", name, got.Docs, got.Scores, want.Docs, want.Scores)
			}
			if got.Approximated != want.Approximated || got.MonitoredScan != want.MonitoredScan || !got.MonitoredScan {
				t.Fatalf("%s: approximated=%v monitored=%v, the reference %v %v",
					name, got.Approximated, got.MonitoredScan, want.Approximated, want.MonitoredScan)
			}
			if got.DocsScored > want.DocsScored {
				t.Fatalf("%s: memo scored %d documents, the reference %d", name, got.DocsScored, want.DocsScored)
			}
			if memo.Loop().Level() != ref.Loop().Level() {
				t.Fatalf("%s: level %v, the reference %v", name, memo.Loop().Level(), ref.Loop().Level())
			}
			me, mm, ml := memo.Loop().Stats()
			re, rm, rl := ref.Loop().Stats()
			if me != re || mm != rm || ml != rl {
				t.Fatalf("%s: stats %d %d %v, the reference %d %d %v", name, me, mm, ml, re, rm, rl)
			}
			if memo.Ops().Snapshot().MonitoredMemo > memoBefore && memo.Loop().State().LossSum > lossBefore {
				lossyMemo++
			}
		}
	}
	if n := ref.Ops().Snapshot().MonitoredMemo; n != 0 {
		t.Fatalf("the server without a query cache read %d memos", n)
	}
	if n := memo.Ops().Snapshot().MonitoredMemo; n == 0 || lossyMemo == 0 {
		t.Fatalf("%d memo stops, %d of them lossy: the memo path is not exercised", n, lossyMemo)
	}
}

// TestMonitoredMemoUnderLossPanics: a monitored request that stops at its
// record point on the memo and whose Loss then panics still serves the
// precise page, read off the memo.
func TestMonitoredMemoUnderLossPanics(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicEvery: 2})
	s := certifyServer(t, func(c *Config) {
		c.Chaos = inj
		c.BreakerThreshold = -1 // keep monitoring: no forced precise runs
	})
	h := s.Handler()
	panicked := 0
	for i := 0; i < 40; i++ {
		word := fmt.Sprintf("w%d+w%d", i%4, i%4+2)
		q := search.Query{Terms: s.termsOf(strings.ReplaceAll(word, "+", " "))}
		precise, _ := s.engine.Search(q, wire.PageSize, 0)
		s.Loop().SetLevel(scanBlock / 4)
		memoBefore, panicsBefore := s.Ops().Snapshot().MonitoredMemo, s.Loop().Breaker().ContainedPanics
		resp := searchReply(t, h, word)
		if !resp.MonitoredScan || resp.Approximated || !slices.Equal(resp.Docs, precise) {
			t.Fatalf("q=%s: monitored=%v approximated=%v page %v, want the monitored precise page %v",
				word, resp.MonitoredScan, resp.Approximated, resp.Docs, precise)
		}
		if s.Ops().Snapshot().MonitoredMemo > memoBefore && s.Loop().Breaker().ContainedPanics > panicsBefore {
			panicked++
		}
	}
	if panicked == 0 {
		t.Fatal("no memo stop whose Loss panicked: the case is not exercised")
	}
}

// TestDegradedMonitoredPublishesNoMemo: a monitored scan cut at its
// deadline has a partial page, which must never become the query's memo.
func TestDegradedMonitoredPublishesNoMemo(t *testing.T) {
	s := certifyServer(t, func(c *Config) {
		c.RequestTimeout = 20 * time.Millisecond
		c.Chaos = chaos.New(chaos.Config{DelayEvery: 1, Delay: 40 * time.Millisecond})
	})
	h := s.Handler()
	s.Loop().SetLevel(scanBlock / 4)
	const word = "w1+w5"
	degraded := 0
	for i := 0; i < 4; i++ {
		if searchReply(t, h, word).Degraded {
			degraded++
		}
	}
	cached := s.qcache.get(word) != nil
	cq := s.parsedQuery(word)
	if degraded == 0 || !cached {
		t.Fatalf("%d degraded requests, query cached=%v: the case is not exercised", degraded, cached)
	}
	if cq.final.Load() != nil || s.Ops().Snapshot().MonitoredMemo != 0 {
		t.Fatal("a deadline-degraded scan published a memo")
	}
}

// TestMonitoredMemoConcurrent runs monitored requests for one query from
// several goroutines, so publishing and reading the memo race (check.sh
// runs this package under -race): every reply is the precise page.
func TestMonitoredMemoConcurrent(t *testing.T) {
	s := certifyServer(t, nil)
	h := s.Handler()
	const word = "w2+w9"
	precise, _ := s.engine.Search(search.Query{Terms: s.termsOf("w2 w9")}, wire.PageSize, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q="+word, nil))
				var resp wire.SearchReply
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !slices.Equal(resp.Docs, precise) {
					errs <- fmt.Sprintf("q=%s: served %s (%v), the precise page is %v", word, rec.Body, err, precise)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s.Ops().Snapshot().MonitoredMemo == 0 {
		t.Fatal("no request stopped on the memo")
	}
}

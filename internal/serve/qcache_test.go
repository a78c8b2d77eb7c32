package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"green/internal/wire"
)

// len reports the resident entry count (tests).
func (c *queryCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

func TestQueryCachePutGet(t *testing.T) {
	c := newQueryCache(64)
	if got := c.get("q=alpha"); got != nil {
		t.Fatalf("cold get = %v, want nil", got)
	}
	v := &cachedQuery{echo: "alpha", terms: []int{1, 2}}
	c.put("alpha", v)
	if got := c.get("alpha"); got != v {
		t.Fatalf("get after put = %v, want %v", got, v)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
	// A second put under the same key keeps the resident entry.
	c.put("alpha", &cachedQuery{echo: "other"})
	if got := c.get("alpha"); got != v {
		t.Errorf("duplicate put replaced resident entry")
	}
}

func TestQueryCacheBounded(t *testing.T) {
	const max = 16
	c := newQueryCache(max)
	for i := 0; i < 10*max; i++ {
		key := fmt.Sprintf("q%d", i)
		c.put(key, &cachedQuery{echo: key})
	}
	if n := c.len(); n > max {
		t.Errorf("cache holds %d entries, bound is %d", n, max)
	}
	if n := c.len(); n == 0 {
		t.Error("eviction emptied the cache entirely")
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	c := newQueryCache(0)
	c.put("alpha", &cachedQuery{echo: "alpha"})
	if got := c.get("alpha"); got != nil {
		t.Errorf("disabled cache returned %v", got)
	}
	if c.len() != 0 {
		t.Errorf("disabled cache len = %d", c.len())
	}
}

func TestRawParam(t *testing.T) {
	cases := []struct {
		raw, key, val string
		ok            bool
	}{
		{"q=alpha+beta&mode=and", "q", "alpha+beta", true},
		{"q=alpha+beta&mode=and", "mode", "and", true},
		{"mode=and&q=x", "q", "x", true},
		{"q=alpha", "mode", "", false},
		{"", "q", "", false},
		{"q", "q", "", true},                  // bare key, no '='
		{"q=", "q", "", true},                 // empty value
		{"qq=x&q=y", "q", "y", true},          // key must match exactly, not by prefix
		{"a=1&&q=z", "q", "z", true},          // empty segment skipped
		{"q=%20hi%20", "q", "%20hi%20", true}, // value stays raw (escaped)
		// Malformed %-escapes pass through untouched: rawParam never
		// unescapes, so a bad sequence is the downstream parser's call
		// (parsedQuery rejects it; see TestParsedQueryMalformedEscape).
		{"q=%zz&mode=and", "q", "%zz", true},
		{"q=%", "q", "%", true},
		{"q=100%25+done", "q", "100%25+done", true},
		// '+' is preserved raw — the unescape step decides it means space.
		{"q=a+b+c", "q", "a+b+c", true},
		// Repeated keys: first occurrence wins, matching url.Values.Get.
		{"q=first&q=second", "q", "first", true},
		{"q=&q=second", "q", "", true},
		// Value containing '=': split on the first '=' only.
		{"q=a=b", "q", "a=b", true},
		// Empty key is not the searched key.
		{"=value&q=x", "q", "x", true},
		{"=value", "", "value", true},
		// Trailing separators leave an empty final segment.
		{"q=x&", "q", "x", true},
		{"mode=and&", "q", "", false},
		{"&", "q", "", false},
	}
	for _, c := range cases {
		val, ok := wire.RawParam(c.raw, c.key)
		if val != c.val || ok != c.ok {
			t.Errorf("wire.RawParam(%q, %q) = (%q, %v), want (%q, %v)",
				c.raw, c.key, val, ok, c.val, c.ok)
		}
	}
}

// TestParsedQueryMalformedEscape: a raw value with a broken %-escape is
// rejected (nil, caller 400s), counted as a miss, and never populates
// the cache — so a repeated malformed query cannot turn into a hit on a
// garbage entry.
func TestParsedQueryMalformedEscape(t *testing.T) {
	s := testServer(t)
	misses0 := s.ops.QueryCacheMisses.Load()
	for i := 0; i < 2; i++ {
		if cq := s.parsedQuery("%zz"); cq != nil {
			t.Fatalf("malformed escape parsed to %+v", cq)
		}
	}
	if got := s.ops.QueryCacheMisses.Load(); got != misses0+2 {
		t.Errorf("misses = %d, want %d (malformed queries must not cache)", got, misses0+2)
	}
	// Whitespace-only queries take the same path.
	if cq := s.parsedQuery("+++"); cq != nil {
		t.Errorf("whitespace-only query parsed to %+v", cq)
	}
}

// TestQueryCacheCapacityConcurrent hammers a small cache from many
// goroutines with a keyspace far larger than the bound: the random
// in-shard replacement must keep the resident count at or under the
// bound at every observation point, with reads racing the writers.
// Run under -race in check.sh, this doubles as the locking proof.
func TestQueryCacheCapacityConcurrent(t *testing.T) {
	const max = 16
	c := newQueryCache(max)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("q%d", (w*2000+i)%997)
				if v := c.get(key); v != nil && v.echo != key {
					t.Errorf("cache returned %q for key %q", v.echo, key)
					return
				}
				c.put(key, &cachedQuery{echo: key})
				if n := c.len(); n > max {
					t.Errorf("cache grew to %d entries, bound is %d", n, max)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n == 0 || n > max {
		t.Errorf("final cache size %d, want in (0, %d]", n, max)
	}
}

// TestQueryCacheCountersConsistent: every request increments exactly one
// of hits/misses, so under concurrent load the two counters must sum to
// the request count — no lost or double-counted updates.
func TestQueryCacheCountersConsistent(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	hits0 := s.ops.QueryCacheHits.Load()
	misses0 := s.ops.QueryCacheMisses.Load()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A small rotating query set: plenty of hits and misses
				// interleaved across goroutines.
				path := fmt.Sprintf("/search?q=term%d", (w+i)%5)
				req := httptest.NewRequest(http.MethodGet, path, nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	wg.Wait()
	hits := s.ops.QueryCacheHits.Load() - hits0
	misses := s.ops.QueryCacheMisses.Load() - misses0
	if hits+misses != workers*perWorker {
		t.Errorf("hits %d + misses %d = %d, want %d", hits, misses, hits+misses, workers*perWorker)
	}
	if hits == 0 {
		t.Error("no hits recorded for a 5-query working set")
	}
}

// TestQueryCacheServesHits drives the same query through the handler
// twice and checks the second request was a cache hit with an identical
// response.
func TestQueryCacheServesHits(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	first := get(t, h, "/search?q=alpha+beta")
	hits0 := s.ops.QueryCacheHits.Load()
	second := get(t, h, "/search?q=alpha+beta")
	if got := s.ops.QueryCacheHits.Load(); got != hits0+1 {
		t.Errorf("cache hits = %d, want %d", got, hits0+1)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached response differs:\n%s\nvs\n%s", first.Body, second.Body)
	}
	if s.ops.QueryCacheMisses.Load() == 0 {
		t.Error("no misses recorded for the cold request")
	}
}

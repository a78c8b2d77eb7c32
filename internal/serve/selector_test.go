package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"green/internal/wire"
)

// TestFeatureEdges covers the quantile-edge derivation: ascending cut
// points, deduplication of collapsed quantiles, the padded top edge,
// and the degenerate single-value distribution.
func TestFeatureEdges(t *testing.T) {
	keys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	edges := featureEdges(keys, 4)
	if edges == nil {
		t.Fatal("featureEdges returned nil for a spread distribution")
	}
	if len(edges) != 5 {
		t.Fatalf("edges = %v, want 5 quartile edges", edges)
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges %v not strictly ascending", edges)
		}
	}
	if top := edges[len(edges)-1]; top != 16 {
		t.Errorf("top edge = %v, want 2x the observed maximum (16)", top)
	}

	// All-equal keys: one padded bucket, still usable.
	edges = featureEdges([]float64{3, 3, 3}, 4)
	if len(edges) != 2 || edges[0] != 3 || edges[1] <= 3 {
		t.Errorf("degenerate distribution edges = %v, want one padded bucket", edges)
	}

	if featureEdges(nil, 4) != nil {
		t.Error("featureEdges(nil) should be nil")
	}
}

// TestServeSelectorEndToEnd boots the service with the proactive
// selector, serves traffic, and checks the Select stage actually
// decided levels (hits advance) and that the /stats controllers rows
// surface the selector counters.
func TestServeSelectorEndToEnd(t *testing.T) {
	s, err := New(Config{Seed: 7, CalibrationQueries: 80, CorpusDocs: 2000,
		SampleInterval: 4, Selector: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Loop().Selector() == nil {
		t.Fatal("Selector: true did not install a selector on the match loop")
	}
	h := s.Handler()
	queries := []string{"alpha", "beta+gamma", "delta+epsilon+zeta", "alpha", "eta"}
	for i := 0; i < 40; i++ {
		req := httptest.NewRequest(http.MethodGet, "/search?q="+queries[i%len(queries)], nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("search returned %d: %s", w.Code, w.Body.String())
		}
	}
	st := s.Loop().SelectorStats()
	if !st.Installed {
		t.Error("SelectorStats.Installed = false with a selector installed")
	}
	if st.Hits == 0 {
		t.Errorf("selector hits = 0 after 40 served queries (fallbacks=%d overrides=%d)",
			st.Fallbacks, st.Overrides)
	}

	// The /stats surface carries the same counters.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp wire.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Selector.Installed || resp.Selector.Hits != st.Hits {
		t.Errorf("/stats selector = %+v, want installed with %d hits", resp.Selector, st.Hits)
	}
	if resp.SampleInterval == 0 {
		t.Error("/stats sample_interval = 0, want the live interval")
	}
}

// TestServeSelectorOffNoCounters: without Config.Selector the Feat
// routing must be inert — no selector installed, no Select-stage
// counters ticking.
func TestServeSelectorOffNoCounters(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for i := 0; i < 10; i++ {
		req := httptest.NewRequest(http.MethodGet, "/search?q=alpha+beta", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
	}
	st := s.Loop().SelectorStats()
	if st.Installed || st.Hits != 0 || st.Fallbacks != 0 || st.Overrides != 0 {
		t.Errorf("selector counters ticked without a selector: %+v", st)
	}
}

// TestServeWarmPathZeroAllocSelector is the allocation gate for the
// proactive path: routing every query through ExecFeat with an
// installed selector must stay allocation-free once warm, exactly like
// the reactive path.
func TestServeWarmPathZeroAllocSelector(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates; the allocation budget only holds in a plain build")
	}
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 2000,
		SampleInterval: 1 << 30, Selector: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Loop().Selector() == nil {
		t.Fatal("no selector installed")
	}
	h := s.withResilience(s.handleSearch)
	req := httptest.NewRequest(http.MethodGet, "/search?q=alpha+beta", nil)
	w := &nullRW{h: make(http.Header, 4)}
	for i := 0; i < 16; i++ {
		h(w, req)
	}
	avg := testing.AllocsPerRun(200, func() { h(w, req) })
	if avg != 0 {
		t.Fatalf("warm selector /search path allocates %.2f times per request, want 0", avg)
	}
}

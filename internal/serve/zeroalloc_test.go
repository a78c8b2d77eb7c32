package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"green/internal/wire"
)

// nullRW is a ResponseWriter whose warm-path methods touch no
// allocator: the header map is preallocated and the body is discarded.
// httptest.ResponseRecorder is unsuitable for an allocation gate — its
// Body buffer grows per request.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(int)             {}

// TestServeWarmPathZeroAlloc is the serve-path allocation gate
// (enforced again by scripts/check.sh): once the query cache and the
// scratch pools are warm, a /search request must not allocate — neither
// on the steady path (sample interval out of reach, the regime the
// ServeQPS benchmark measures) nor on the monitored one (every request
// sampled, the match set several times the level M so the record point
// falls inside the scan: the QoS adapter snapshots the page there and
// compares it with the query's memoised precise page in buffers it keeps
// across pool round-trips; the occasional recalibration's new state
// snapshot is well under one allocation per request).
func TestServeWarmPathZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates; the allocation budget only holds in a plain build")
	}
	for _, c := range []struct {
		name     string
		interval int
	}{{"steady", 1 << 30}, {"monitored", 1}} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 20000,
				SampleInterval: c.interval})
			if err != nil {
				t.Fatal(err)
			}
			h := s.withResilience(s.handleSearch)
			req := httptest.NewRequest(http.MethodGet, "/search?q=w0+w3+w9+w1+w12", nil)
			w := &nullRW{h: make(http.Header, 4)}
			for i := 0; i < 16; i++ {
				h(w, req) // warm the query cache, scratch pools, and buffers
			}
			avg := testing.AllocsPerRun(200, func() { h(w, req) })
			if avg != 0 {
				t.Fatalf("warm /search path allocates %.2f times per request, want 0", avg)
			}
			if c.interval != 1 {
				return
			}
			// The measured requests were the monitored kind this gate is
			// about: sampled, scanned to M, where Record took its snapshot,
			// and stopped there on the query's memoised precise page.
			memo := s.Ops().Snapshot().MonitoredMemo
			rec := httptest.NewRecorder()
			h(rec, req)
			var resp wire.SearchReply
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			level := s.Loop().Level()
			if !resp.MonitoredScan || memo < 200 || s.Ops().Snapshot().MonitoredMemo != memo+1 ||
				resp.DocsScored != int(math.Ceil(level)) {
				t.Fatalf("monitored=%v, %d memo stops, %d documents scored against M=%v: the request did not stop on the memo at its record point",
					resp.MonitoredScan, memo, resp.DocsScored, level)
			}
		})
	}
}

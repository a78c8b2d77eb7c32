package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"green/internal/search"
	"green/internal/wire"
)

// testServer builds a small service once per test run.
func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Seed: 7, CalibrationQueries: 100, CorpusDocs: 4000,
		SampleInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SLA: -0.1}); err == nil {
		t.Error("negative SLA accepted")
	}
	if _, err := New(Config{SLA: 1.5}); err == nil {
		t.Error("SLA >= 1 accepted")
	}
	if _, err := New(Config{SLA: math.NaN()}); err == nil {
		t.Error("NaN SLA accepted")
	}
	// Refused up front: a negative period would panic the snapshot
	// loop's ticker after boot, a negative count the calibration log.
	if _, err := New(Config{CorpusDocs: 1000, StateDir: t.TempDir(), SnapshotInterval: -time.Second}); err == nil {
		t.Error("negative SnapshotInterval accepted")
	}
	if _, err := New(Config{CorpusDocs: 1000, CalibrationQueries: -1}); err == nil {
		t.Error("negative CalibrationQueries accepted")
	}
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	h := testServer(t).Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := get(t, h, "/search?q=alpha+beta")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != "alpha beta" {
		t.Errorf("echoed query = %q", resp.Query)
	}
	if resp.DocsScored <= 0 {
		t.Errorf("docs scored = %d", resp.DocsScored)
	}
	if len(resp.Docs) == 0 {
		t.Error("no results")
	}
	// Same query again: deterministic results.
	rec2 := get(t, h, "/search?q=alpha+beta")
	var resp2 wire.SearchReply
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) != len(resp2.Docs) {
		t.Error("result size unstable")
	}
}

func TestSearchRequiresQuery(t *testing.T) {
	h := testServer(t).Handler()
	if rec := get(t, h, "/search"); rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/search?q=%20"); rec.Code != http.StatusBadRequest {
		t.Errorf("blank query status = %d, want 400", rec.Code)
	}
}

// TestEngineImmutable: New shares the live engine of its corpus with
// every other holder (search.NewEngine returns one engine per Config),
// so neither calibration nor serving may write into it. Its whole memory
// hashes the same before New, after it, and after a few hundred /search
// requests, monitored and not. New's engine stage, a lookup, reports a
// small part of what the build cost.
func TestEngineImmutable(t *testing.T) {
	runtime.GC() // a corpus no other test boots: the call below builds
	start := time.Now()
	e, err := search.NewEngine(search.Config{Seed: 7, Docs: 4200})
	if err != nil {
		t.Fatal(err)
	}
	buildMS := float64(time.Since(start).Microseconds()) / 1e3
	before := engineHash(t, e)
	s, err := New(Config{Seed: 7, CalibrationQueries: 100, CorpusDocs: 4200, SampleInterval: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != e {
		t.Fatal("New built a second engine for a live corpus")
	}
	if ms := s.Boot().EngineMS; ms > buildMS/10 {
		t.Errorf("engine_ms = %v sharing a live engine, building it took %v", ms, buildMS)
	}
	if got := engineHash(t, e); got != before {
		t.Fatalf("calibration wrote into the engine: %s, was %s", got, before)
	}
	h := s.Handler()
	for i := 0; i < 300; i++ {
		q := fmt.Sprintf("/search?q=w%d+v%d", i, i%17)
		if i%4 == 2 {
			q += "&scores=1"
		}
		if rec := get(t, h, q); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q, rec.Code)
		}
	}
	var st wire.Stats
	if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Monitored == 0 || st.Monitored == st.Queries {
		t.Fatalf("%d of %d queries monitored, want some and not all", st.Monitored, st.Queries)
	}
	if got := engineHash(t, e); got != before {
		t.Errorf("serving wrote into the engine: %s, was %s", got, before)
	}
}

// engineHash is the SHA-256 of everything an engine holds, read by
// reflection through every field, pointer and slice, so that a field
// the search package adds is hashed too.
func engineHash(t *testing.T, e *search.Engine) string {
	t.Helper()
	h := sha256.New()
	put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Int, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint16, reflect.Uint32:
			put(v.Uint())
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		default:
			t.Fatalf("engineHash: no rule for a %s field", v.Type())
		}
	}
	walk(reflect.ValueOf(e))
	return hex.EncodeToString(h.Sum(nil))
}

func TestStatsEndpoint(t *testing.T) {
	// A corpus no other test boots, and nothing left live from an earlier
	// run, so New builds its engine and the engine stage costs something.
	runtime.GC()
	s, err := New(Config{Seed: 7, CalibrationQueries: 100, CorpusDocs: 4100,
		SampleInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 5; i++ {
		get(t, h, "/search?q=hello+world")
	}
	rec := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st wire.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 5 {
		t.Errorf("queries = %d, want 5", st.Queries)
	}
	if st.CurrentM <= 0 {
		t.Errorf("current M = %v", st.CurrentM)
	}
	if st.SampleInterval == 0 {
		t.Error("sample_interval = 0, want the live interval")
	}
	// The boot stages that ran report what they cost; no state directory,
	// no restore stage.
	if st.Boot != s.Boot() || st.Boot.EngineMS <= 0 || st.Boot.CalibrateMS <= 0 || st.Boot.RestoreMS != 0 {
		t.Errorf("boot = %+v (Server.Boot %+v), want engine and calibrate > 0, restore 0", st.Boot, s.Boot())
	}
	if st.DocsScored <= 0 {
		t.Errorf("docs scored = %d", st.DocsScored)
	}
	if st.WorkSavedFraction < 0 || st.WorkSavedFraction >= 1 {
		t.Errorf("work saved = %v", st.WorkSavedFraction)
	}
}

func TestConfigEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec := get(t, h, "/config")
	var c wire.Config
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if c.SLA != 0.02 || c.TopN != 10 || c.CorpusDocs <= 0 || c.InitialM <= 0 {
		t.Errorf("config = %+v", c)
	}
}

func TestApproximationSavesWork(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Drive enough distinct queries that at least some hit long posting
	// lists where the cap bites.
	words := []string{"ocean", "tree", "river", "cloud", "stone", "light",
		"wind", "fire", "earth", "snow", "rain", "storm"}
	for i, w := range words {
		for j := i + 1; j < len(words); j++ {
			get(t, h, "/search?q="+w+"+"+words[j])
		}
	}
	rec := get(t, h, "/stats")
	var st wire.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WorkSavedFraction <= 0 {
		t.Errorf("approximation saved no work: %+v", st)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Get(srv.URL + "/search?q=parallel+request")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var st wire.Stats
	rec := get(t, s.Handler(), "/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 32 {
		t.Errorf("queries = %d, want 32", st.Queries)
	}
}

func TestTermsOfDeduplicatesAndBounds(t *testing.T) {
	s := testServer(t)
	terms := s.termsOf("Word word WORD other")
	if len(terms) < 1 || len(terms) > 3 {
		t.Fatalf("terms = %v", terms)
	}
	seen := map[int]bool{}
	for _, term := range terms {
		if term < 0 || term >= s.Engine().Vocab() {
			t.Fatalf("term %d out of range", term)
		}
		if seen[term] {
			t.Fatalf("duplicate term %d", term)
		}
		seen[term] = true
	}
	// "word" in any case maps to one term.
	if len(s.termsOf("case CASE Case")) != 1 {
		t.Error("case folding failed")
	}
}

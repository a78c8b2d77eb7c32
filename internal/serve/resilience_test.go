package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"green/internal/chaos"
	"green/internal/persist"
	"green/internal/wire"
)

// resilientServer builds a small service with resilience-test overrides.
func resilientServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 4000,
		SampleInterval: 20}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func decodeStats(t *testing.T, h http.Handler) wire.Stats {
	t.Helper()
	rec := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status = %d", rec.Code)
	}
	var st wire.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestShedWhenOverloaded(t *testing.T) {
	s := resilientServer(t, func(c *Config) { c.MaxInFlight = 2 })
	h := s.Handler()

	// Healthy first: /readyz agrees with /healthz.
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz while healthy = %d: %s", rec.Code, rec.Body)
	}

	// Simulate two requests already in flight; the next must be shed.
	s.inFlight.Add(2)
	rec := get(t, h, "/search?q=alpha+beta")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /search = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.Ops().Snapshot().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// At capacity the service is degraded: /readyz flips, /healthz does not.
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz at capacity = %d, want 503", rec.Code)
	} else if !strings.Contains(rec.Body.String(), "shedding") {
		t.Errorf("/readyz body = %s, want shedding reason", rec.Body)
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz at capacity = %d, want 200", rec.Code)
	}
	st := decodeStats(t, h)
	if !st.Degraded || st.Ops.Shed != 1 {
		t.Errorf("stats = degraded %v, ops %+v", st.Degraded, st.Ops)
	}

	// Capacity frees up: ready again, searches served.
	s.inFlight.Add(-2)
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", rec.Code)
	}
	if rec := get(t, h, "/search?q=alpha+beta"); rec.Code != http.StatusOK {
		t.Errorf("/search after recovery = %d, want 200", rec.Code)
	}
}

func TestDeadlineServesPartialResults(t *testing.T) {
	s := resilientServer(t, func(c *Config) {
		c.RequestTimeout = time.Nanosecond // expired before the scan starts
		c.Disabled = true                  // full precise scan, so the cut is visible
	})
	h := s.Handler()
	rec := get(t, h, "/search?q=alpha+beta")
	if rec.Code != http.StatusOK {
		t.Fatalf("deadline /search = %d, want 200 with partial results", rec.Code)
	}
	var resp wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("deadline response not marked degraded")
	}
	if resp.DocsScored >= s.Engine().Docs() {
		t.Errorf("docs scored = %d, want a partial scan of %d",
			resp.DocsScored, s.Engine().Docs())
	}
	if got := s.Ops().Snapshot().DeadlinePartial; got != 1 {
		t.Errorf("deadline_partial counter = %d, want 1", got)
	}
}

func TestBreakerOpensUnderInjectedPanics(t *testing.T) {
	s := resilientServer(t, func(c *Config) {
		c.SampleInterval = 1 // every query monitored → every Record guarded
		c.Chaos = chaos.New(chaos.Config{Seed: 1, PanicEvery: 1})
	})
	h := s.Handler()
	// The query must match more documents than the operating level so
	// the monitored stop decision triggers and Record (the chaos site)
	// actually runs; many distinct words widen the match set.
	const wide = "/search?q=alpha+beta+gamma+delta+epsilon+zeta+eta+theta"
	for i := 0; i < 10; i++ {
		if rec := get(t, h, wide); rec.Code != http.StatusOK {
			t.Fatalf("query %d = %d, want 200 despite injected panics", i, rec.Code)
		}
	}
	st := decodeStats(t, h)
	if st.BreakerState != "open" {
		t.Errorf("breaker state = %q, want open", st.BreakerState)
	}
	if st.ContainedPanics < 3 || st.BreakerTrips != 1 {
		t.Errorf("contained = %d, trips = %d", st.ContainedPanics, st.BreakerTrips)
	}
	if !st.Degraded {
		t.Error("open breaker not reported as degraded")
	}
	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "breaker-open") {
		t.Errorf("/readyz = %d %s, want 503 breaker-open", rec.Code, rec.Body)
	}
}

func TestSnapshotRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mutate := func(c *Config) { c.StateDir = dir }
	s1 := resilientServer(t, mutate)
	if s1.RestoreNote() != "cold" || s1.RestoreReport()[snapshotName] != "cold" {
		t.Fatalf("first boot restore = %q %v, want cold", s1.RestoreNote(), s1.RestoreReport())
	}
	h1 := s1.Handler()
	for i := 0; i < 30; i++ {
		get(t, h1, "/search?q=alpha+beta+gamma")
	}
	execs1, _, _ := s1.Loop().Stats()
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}

	// Restart with the same configuration: the snapshot is restored and
	// the controller resumes where it left off rather than starting cold.
	s2 := resilientServer(t, mutate)
	if s2.RestoreNote() != "restored" || s2.RestoreReport()[snapshotName] != "restored" {
		t.Fatalf("restart restore = %q %v, want restored", s2.RestoreNote(), s2.RestoreReport())
	}
	if b := decodeStats(t, s2.Handler()).Boot; b.RestoreMS <= 0 {
		t.Errorf("a restoring boot reports %+v, want restore_ms > 0", b)
	}
	execs2, _, _ := s2.Loop().Stats()
	if execs2 != execs1 {
		t.Errorf("restored execs = %d, want %d", execs2, execs1)
	}
	if s2.Loop().Level() != s1.Loop().Level() {
		t.Errorf("restored level = %v, want %v", s2.Loop().Level(), s1.Loop().Level())
	}

	// Corrupt the snapshot on disk: the next restart must refuse the
	// state but still come up serving.
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.CorruptFile(store.Path(stateName), 3); err != nil {
		t.Fatal(err)
	}
	s3 := resilientServer(t, mutate)
	if !strings.HasPrefix(s3.RestoreNote(), "rejected:") {
		t.Fatalf("corrupt restore = %q, want rejected", s3.RestoreNote())
	}
	if got := s3.Ops().Snapshot().RestoreRejected; got != 1 {
		t.Errorf("restore_rejected = %d, want 1", got)
	}
	h3 := s3.Handler()
	if rec := get(t, h3, "/search?q=alpha+beta"); rec.Code != http.StatusOK {
		t.Errorf("search after rejected restore = %d, want 200", rec.Code)
	}
	st := decodeStats(t, h3)
	if !strings.HasPrefix(st.Restore, "rejected:") {
		t.Errorf("/stats restore = %q, want rejected", st.Restore)
	}
}

// TestCorruptedMultiControllerSnapshotBoot: the bundled snapshot holds
// every registered controller (the match loop); torn (truncated
// mid-write) and bit-flipped files must both be rejected atomically at
// boot — no controller restores from a damaged bundle — and the service
// still comes up cold, serving both retrieval modes.
func TestCorruptedMultiControllerSnapshotBoot(t *testing.T) {
	damage := map[string]func(path string) error{
		"truncated": func(path string) error { return chaos.TruncateFile(path, 5) },
		"corrupted": func(path string) error { return chaos.CorruptFile(path, 5) },
	}
	for name, breakFile := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mutate := func(c *Config) { c.StateDir = dir }
			s1 := resilientServer(t, mutate)
			h1 := s1.Handler()
			for i := 0; i < 20; i++ {
				get(t, h1, "/search?q=alpha+beta")
				get(t, h1, "/search?q=alpha+beta&mode=and")
			}
			if err := s1.SaveState(); err != nil {
				t.Fatal(err)
			}

			store, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := breakFile(store.Path(stateName)); err != nil {
				t.Fatal(err)
			}

			s2 := resilientServer(t, mutate)
			if !strings.HasPrefix(s2.RestoreNote(), "rejected:") {
				t.Fatalf("%s restore = %q, want rejected", name, s2.RestoreNote())
			}
			if got := s2.Ops().Snapshot().RestoreRejected; got != 1 {
				t.Errorf("restore_rejected = %d, want 1", got)
			}
			// Atomic rejection: no controller got a partial restore — each
			// starts cold (zero executions), not with s1's counters.
			for _, c := range s2.Registry().Controllers() {
				execs, _, _ := c.Stats()
				if execs != 0 {
					t.Errorf("controller %q restored %d execs from a damaged bundle", c.Name(), execs)
				}
			}
			// And both retrieval modes still serve.
			h2 := s2.Handler()
			if rec := get(t, h2, "/search?q=alpha+beta"); rec.Code != http.StatusOK {
				t.Errorf("disjunctive search after %s restore = %d", name, rec.Code)
			}
			if rec := get(t, h2, "/search?q=alpha+beta&mode=and"); rec.Code != http.StatusOK {
				t.Errorf("conjunctive search after %s restore = %d", name, rec.Code)
			}
			// The damaged bundle must not poison the next save: a fresh
			// snapshot cycle restores cleanly again.
			if err := s2.SaveState(); err != nil {
				t.Fatal(err)
			}
			s3 := resilientServer(t, mutate)
			if s3.RestoreNote() != "restored" {
				t.Errorf("post-repair restore = %q, want restored", s3.RestoreNote())
			}
		})
	}
}

func TestForeignSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s1 := resilientServer(t, func(c *Config) { c.StateDir = dir })
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}
	// A different SLA is a different model contract: its persisted
	// levels must not be applied.
	s2 := resilientServer(t, func(c *Config) {
		c.StateDir = dir
		c.SLA = 0.05
	})
	if !strings.HasPrefix(s2.RestoreNote(), "rejected:") {
		t.Errorf("foreign restore = %q, want rejected", s2.RestoreNote())
	}
}

func TestSnapshotLoopWritesPeriodically(t *testing.T) {
	s := resilientServer(t, func(c *Config) {
		c.StateDir = t.TempDir()
		c.SnapshotInterval = 10 * time.Millisecond
	})
	stop := s.StartSnapshotLoop()
	deadline := time.Now().Add(2 * time.Second)
	for s.Ops().Snapshot().SnapshotSaves == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if got := s.Ops().Snapshot().SnapshotSaves; got == 0 {
		t.Error("background snapshot loop wrote nothing")
	}
}

func TestSnapshotLoopNoopWithoutStateDir(t *testing.T) {
	s := resilientServer(t, nil)
	stop := s.StartSnapshotLoop()
	stop()
	if err := s.SaveState(); err != nil {
		t.Errorf("SaveState without state dir = %v, want nil", err)
	}
	if got := s.Ops().Snapshot().SnapshotSaves; got != 0 {
		t.Errorf("snapshot_saves = %d, want 0", got)
	}
}

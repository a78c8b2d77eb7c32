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
	if s1.RestoreNote() != "cold" {
		t.Fatalf("first boot restore = %q, want cold", s1.RestoreNote())
	}
	h1 := s1.Handler()
	for i := 0; i < 30; i++ {
		get(t, h1, "/search?q=alpha+beta+gamma")
	}
	// The highest level /budget accepts is the base level; a snapshot
	// taken there must restore.
	if rec := post(t, h1, "/budget", `{"level":4000}`); rec.Code != http.StatusOK || s1.Loop().Level() != 4000 {
		t.Fatalf("push at base_level: status %d, level %v", rec.Code, s1.Loop().Level())
	}
	execs1, _, _ := s1.Loop().Stats()
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}

	// Restart with the same configuration: the snapshot is restored and
	// the controller resumes where it left off rather than starting cold.
	s2 := resilientServer(t, mutate)
	if s2.RestoreNote() != "restored" {
		t.Fatalf("restart restore = %q, want restored", s2.RestoreNote())
	}
	st2 := decodeStats(t, s2.Handler())
	if st2.Boot.RestoreMS <= 0 {
		t.Errorf("a restoring boot reports %+v, want restore_ms > 0", st2.Boot)
	}
	if st2.Restore != "restored" || st2.Queries != execs1 || st2.CurrentM != s1.Loop().Level() {
		t.Errorf("restored /stats restore %q, queries %d, current_m %v; want restored, %d, %v",
			st2.Restore, st2.Queries, st2.CurrentM, execs1, s1.Loop().Level())
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

// TestCorruptedMultiControllerSnapshotBoot: a torn (truncated
// mid-write) or bit-flipped snapshot file must be rejected whole at
// boot — the match loop restores nothing from it — and the service
// still comes up cold and serves.
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
			// Whole rejection: the loop starts cold (zero queries), not
			// with s1's counters.
			if st := decodeStats(t, s2.Handler()); st.Queries != 0 || st.Monitored != 0 {
				t.Errorf("restored %d queries, %d monitored from a damaged snapshot", st.Queries, st.Monitored)
			}
			// And it still serves.
			h2 := s2.Handler()
			if rec := get(t, h2, "/search?q=alpha+beta"); rec.Code != http.StatusOK {
				t.Errorf("search after %s restore = %d", name, rec.Code)
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

// TestOlderBundleLayoutRejected: a state directory written before the
// server held one controller keeps a {"version":1,"controllers":{…}}
// bundle under stateName. It is read and refused — the note says so and
// the loop boots at its calibrated level with nothing restored — and the
// first snapshot after that restores on the next boot.
func TestOlderBundleLayoutRejected(t *testing.T) {
	dir := t.TempDir()
	mutate := func(c *Config) { c.StateDir = dir }
	s1 := resilientServer(t, mutate)
	calibrated := s1.Loop().Level()
	for i := 0; i < 30; i++ {
		get(t, s1.Handler(), "/search?q=alpha+beta+gamma")
	}
	loopState, err := s1.Loop().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	bundle := `{"version":1,"controllers":{"` + matchName + `":` + string(loopState) + `}}`
	if err := s1.store.Save(stateName, s1.modelSig, []byte(bundle)); err != nil {
		t.Fatal(err)
	}

	s2 := resilientServer(t, mutate)
	if !strings.HasPrefix(s2.RestoreNote(), "rejected:") {
		t.Fatalf("older bundle restore = %q, want rejected", s2.RestoreNote())
	}
	st := decodeStats(t, s2.Handler())
	if st.CurrentM != calibrated || st.Queries != 0 || st.Ops.RestoreRejected != 1 {
		t.Errorf("after a refused bundle: current_m %v, queries %d, restore_rejected %d; want %v, 0, 1",
			st.CurrentM, st.Queries, st.Ops.RestoreRejected, calibrated)
	}
	if err := s2.SaveState(); err != nil {
		t.Fatal(err)
	}
	if s3 := resilientServer(t, mutate); s3.RestoreNote() != "restored" {
		t.Errorf("boot after the first snapshot = %q, want restored", s3.RestoreNote())
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

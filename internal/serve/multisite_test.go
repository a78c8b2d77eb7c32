package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"green/internal/wire"
)

// multiSiteServer builds a service hosting both approximation sites
// (the disjunctive match loop and the conjunctive scan loop).
func multiSiteServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 4000,
		SampleInterval: 10, ApproxAnd: true}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApproxAndRegistersSecondController(t *testing.T) {
	s := multiSiteServer(t, nil)
	if s.AndLoop() == nil {
		t.Fatal("ApproxAnd did not install the conjunctive controller")
	}
	names := s.Registry().Names()
	if len(names) != 2 || names[0] != snapshotName || names[1] != andLoopName {
		t.Fatalf("registry = %v, want [%s %s]", names, snapshotName, andLoopName)
	}
	h := s.Handler()
	var c wire.Config
	if err := json.Unmarshal(get(t, h, "/config").Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Controllers) != 2 {
		t.Errorf("/config controllers = %v, want both sites", c.Controllers)
	}
}

func TestApproxAndServesUnderController(t *testing.T) {
	s := multiSiteServer(t, nil)
	h := s.Handler()
	for i := 0; i < 25; i++ {
		rec := get(t, h, fmt.Sprintf("/search?q=alpha+beta&mode=and&r=%d", i))
		if rec.Code != http.StatusOK {
			t.Fatalf("AND query %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	execs, monitored, _ := s.AndLoop().Stats()
	if execs != 25 {
		t.Errorf("and-loop executions = %d, want 25", execs)
	}
	if monitored == 0 {
		t.Error("and loop never monitored with SampleInterval 10")
	}
	// The match loop saw none of the conjunctive traffic.
	if orExecs, _, _ := s.Loop().Stats(); orExecs != 0 {
		t.Errorf("match loop executions = %d, want 0", orExecs)
	}
	st := decodeStats(t, h)
	if len(st.Controllers) != 2 {
		t.Fatalf("/stats controllers = %d rows, want 2", len(st.Controllers))
	}
	byName := map[string]int64{}
	for _, row := range st.Controllers {
		byName[row.Name] = row.Executions
	}
	if byName[andLoopName] != 25 || byName[snapshotName] != 0 {
		t.Errorf("per-controller executions = %v", byName)
	}
}

func TestMultiControllerSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mutate := func(c *Config) { c.StateDir = dir }
	s1 := multiSiteServer(t, mutate)
	if s1.RestoreNote() != "cold" {
		t.Fatalf("first boot = %q, want cold", s1.RestoreNote())
	}
	if rep := s1.RestoreReport(); rep[snapshotName] != "cold" || rep[andLoopName] != "cold" {
		t.Fatalf("cold-boot report = %v", rep)
	}
	h1 := s1.Handler()
	for i := 0; i < 20; i++ {
		get(t, h1, "/search?q=alpha+beta+gamma")
		get(t, h1, "/search?q=alpha+beta&mode=and")
	}
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}

	s2 := multiSiteServer(t, mutate)
	if s2.RestoreNote() != "restored" {
		t.Fatalf("restart = %q, want restored", s2.RestoreNote())
	}
	if rep := s2.RestoreReport(); rep[snapshotName] != "restored" || rep[andLoopName] != "restored" {
		t.Fatalf("restart report = %v", rep)
	}
	for _, pair := range []struct {
		name   string
		c1, c2 interface {
			Stats() (int64, int64, float64)
			Level() float64
		}
	}{
		{snapshotName, s1.Loop(), s2.Loop()},
		{andLoopName, s1.AndLoop(), s2.AndLoop()},
	} {
		e1, m1, _ := pair.c1.Stats()
		e2, m2, _ := pair.c2.Stats()
		if e1 != e2 || m1 != m2 {
			t.Errorf("%s counters (%d,%d) vs (%d,%d)", pair.name, e1, m1, e2, m2)
		}
		if pair.c1.Level() != pair.c2.Level() {
			t.Errorf("%s level %v vs %v", pair.name, pair.c1.Level(), pair.c2.Level())
		}
	}
}

func TestSingleSiteSnapshotIsForeignToMultiSite(t *testing.T) {
	// Adding a second approximation site changes the model signature: a
	// single-site snapshot must not restore into a multi-site server.
	dir := t.TempDir()
	s1, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 4000,
		SampleInterval: 10, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}
	s2 := multiSiteServer(t, func(c *Config) { c.StateDir = dir })
	if note := s2.RestoreNote(); len(note) < 9 || note[:9] != "rejected:" {
		t.Errorf("cross-layout restore = %q, want rejected", note)
	}
}

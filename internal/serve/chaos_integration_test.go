package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"green/internal/chaos"
	"green/internal/persist"
)

// wideQuery matches more documents than the operating level, so
// monitored executions actually reach the Record/Loss callbacks where
// the chaos injector aims.
const wideQuery = "alpha+beta+gamma+delta+epsilon+zeta+eta+theta"

// TestChaosServiceSurvivesAndRecovers is the fault-injection harness
// end to end: a service under injected QoS-callback panics and latency
// spikes, hammered past its in-flight cap, must stay available (every
// response is 200 or a deliberate 503 shed); after a crash that leaves
// a corrupted snapshot, a restart must reject the state, come up cold,
// and re-converge the monitored loss under the SLA; and a restart from
// a valid snapshot must resume the monitoring cadence within one
// SampleInterval.
func TestChaosServiceSurvivesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Seed: 7, CalibrationQueries: 60, CorpusDocs: 4000,
		SampleInterval: 5, StateDir: dir,
		MaxInFlight: 2,
	}

	// Phase 1: chaos load. Every 4th Record/Loss call panics, every 3rd
	// stalls; 8 clients hammer a 2-slot service.
	chaosCfg := cfg
	chaosCfg.Chaos = chaos.New(chaos.Config{
		Seed: 11, PanicEvery: 4, DelayEvery: 3, Delay: time.Millisecond,
	})
	s1, err := New(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s1.Handler())
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				url := fmt.Sprintf("%s/search?q=%s+g%dq%d", srv.URL, wideQuery, g, i)
				resp, err := http.Get(url)
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	srv.Close()
	if other.Load() != 0 {
		t.Fatalf("responses other than 200/503: %d", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under chaos")
	}
	if shed.Load() == 0 {
		t.Error("in-flight cap never shed under 8 clients vs 2 slots")
	}
	panics, delays := chaosCfg.Chaos.Counts()
	if panics == 0 || delays == 0 {
		t.Fatalf("chaos injected %d panics, %d delays; want both > 0", panics, delays)
	}
	if got := s1.Loop().Breaker().ContainedPanics; got == 0 {
		t.Error("injected panics were never contained by the controller")
	}

	// Phase 2: crash with a corrupted snapshot on disk. The restart must
	// refuse the state, come up cold, and serve.
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.CorruptFile(store.Path(stateName), 13); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s2.RestoreNote(), "rejected:") {
		t.Fatalf("corrupt snapshot restore = %q, want rejected", s2.RestoreNote())
	}

	// Phase 3: fault-free mixed traffic. The controller oscillates its
	// level around the SLA band (the paper's steady-state behavior), so
	// "re-converged" means the mean monitored loss settles at the order
	// of the SLA — not an order of magnitude above it, as an un-adapted
	// or poisoned controller would produce. This phase is deterministic:
	// the restart came up cold, the workload and corpus are seeded, and
	// requests are sequential.
	h2 := s2.Handler()
	words := []string{"ocean", "tree", "river", "cloud", "stone", "light",
		"wind", "fire", "earth", "snow", "rain", "storm"}
	for n := 0; n < 600; n++ {
		i := n % len(words)
		j := (n/len(words) + 1 + i) % len(words)
		rec := get(t, h2, fmt.Sprintf("/search?q=%s+%s+r%d", words[i], words[j], n))
		if rec.Code != http.StatusOK {
			t.Fatalf("recovery query %d = %d", n, rec.Code)
		}
	}
	_, monitored, meanLoss := s2.Loop().Stats()
	if monitored == 0 {
		t.Fatal("no monitored executions during recovery")
	}
	if meanLoss > 2*0.02 {
		t.Errorf("mean monitored loss = %v did not re-converge near SLA 0.02", meanLoss)
	}
	if b := s2.Loop().Breaker(); b.State.String() != "closed" {
		t.Errorf("breaker after fault-free traffic = %v, want closed", b.State)
	}

	// Phase 4: restart from the now-valid snapshot. The controller
	// resumes its counters and monitors again within one SampleInterval.
	if err := s2.SaveState(); err != nil {
		t.Fatal(err)
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3.RestoreNote() != "restored" {
		t.Fatalf("valid snapshot restore = %q, want restored", s3.RestoreNote())
	}
	execs2, monitored2, _ := s2.Loop().Stats()
	execs3, monitored3, _ := s3.Loop().Stats()
	if execs3 != execs2 || monitored3 != monitored2 {
		t.Fatalf("restored counters = (%d, %d), want (%d, %d)",
			execs3, monitored3, execs2, monitored2)
	}
	h3 := s3.Handler()
	for i := 0; i < cfg.SampleInterval; i++ {
		get(t, h3, fmt.Sprintf("/search?q=%s+s%d", wideQuery, i))
	}
	if _, after, _ := s3.Loop().Stats(); after <= monitored3 {
		t.Errorf("no monitored execution within one SampleInterval of restart")
	}
}

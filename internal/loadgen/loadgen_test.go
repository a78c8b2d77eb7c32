package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"green/internal/serve"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", QPS: 0, Duration: time.Second, Deadline: time.Second}); err == nil {
		t.Error("zero QPS accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", QPS: 1, Duration: 0, Deadline: time.Second}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", QPS: 1, Duration: time.Second, Deadline: 0}); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", QPS: 2e9, Duration: time.Second, Deadline: time.Second}); err == nil {
		t.Error("QPS above 1e9 accepted")
	}
}

func TestRunAgainstGreenserve(t *testing.T) {
	s, err := serve.New(serve.Config{Seed: 7, CalibrationQueries: 80, CorpusDocs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		QPS:      200,
		Duration: 500 * time.Millisecond,
		Deadline: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 50 {
		t.Errorf("sent = %d, want ~100", res.Sent)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.SuccessRate() < 0.95 {
		t.Errorf("success rate %v under generous deadline", res.SuccessRate())
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("percentiles inconsistent: %v / %v", res.P50, res.P99)
	}
	if res.AchievedQPS <= 0 {
		t.Error("no achieved QPS")
	}
	if res.String() == "" {
		t.Error("empty summary")
	}
}

func TestRunTightDeadlineLowersSuccess(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:  slow.URL,
		QPS:      100,
		Duration: 300 * time.Millisecond,
		Deadline: time.Millisecond, // impossible
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinDeadline != 0 {
		t.Errorf("within deadline = %d with 1ms budget over 20ms handler", res.WithinDeadline)
	}
	if res.Completed == 0 {
		t.Error("requests should still complete")
	}
}

func TestRunCountsFailures(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:  failing.URL,
		QPS:      100,
		Duration: 200 * time.Millisecond,
		Deadline: time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("500s not counted as failures")
	}
	if res.Completed != 0 {
		t.Errorf("completed = %d for an all-500 server", res.Completed)
	}
}

func TestRunRespectsContextCancellation(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, Config{
		BaseURL:  s.URL,
		QPS:      50,
		Duration: 30 * time.Second, // would run far longer without ctx
		Deadline: time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation ignored")
	}
	if res.Sent >= 1500 {
		t.Errorf("sent = %d, cancellation should have stopped issuance", res.Sent)
	}
}

func TestClosedLoopMeasuresThroughput(t *testing.T) {
	s, err := serve.New(serve.Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 2500})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Closed:   true,
		Workers:  4,
		Duration: 400 * time.Millisecond,
		Deadline: time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.AchievedQPS <= 0 {
		t.Fatalf("closed loop measured nothing: %+v", res)
	}
	if res.Sent != res.Completed+res.Failed {
		t.Errorf("accounting broken: %d != %d + %d", res.Sent, res.Completed, res.Failed)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	// Closed mode ignores QPS; zero QPS must be accepted.
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer s.Close()
	res, err := Run(context.Background(), Config{
		BaseURL: s.URL, Closed: true, Workers: 2,
		Duration: 100 * time.Millisecond, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("closed loop with zero QPS completed nothing")
	}
}

// TestCoordinatorModeClassifiesDegraded: against a coordinator-shaped
// endpoint, 200s with "degraded":true are counted separately with
// per-shard attribution, quorum 503s count as shed, and clean 200s stay
// plain completions.
func TestCoordinatorModeClassifiesDegraded(t *testing.T) {
	var mu sync.Mutex
	n := 0
	co := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		i := n
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch {
		case i%5 == 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"below quorum"}`, http.StatusServiceUnavailable)
		case i%2 == 0:
			fmt.Fprint(w, `{"query":"q","docs":[1,2],"docs_scored":9,"degraded":true,`+
				`"shards_ok":2,"shards_total":3,"failed_shards":["s1"]}`)
		default:
			fmt.Fprint(w, `{"query":"q","docs":[1,2,3],"docs_scored":12,"degraded":false,`+
				`"shards_ok":3,"shards_total":3}`)
		}
	}))
	defer co.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:     co.URL,
		QPS:         200,
		Duration:    300 * time.Millisecond,
		Deadline:    time.Second,
		Seed:        1,
		Coordinator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("no degraded responses classified")
	}
	if res.Shed == 0 {
		t.Error("quorum 503s not counted as shed")
	}
	if res.Completed <= res.Degraded {
		t.Errorf("no clean completions: completed=%d degraded=%d", res.Completed, res.Degraded)
	}
	if got := res.ShardFailures["s1"]; got != res.Degraded {
		t.Errorf("shard attribution s1=%d, want %d (one per degraded response)", got, res.Degraded)
	}
	if !strings.Contains(res.String(), "degraded=") {
		t.Errorf("summary omits degraded count: %s", res.String())
	}

	// Without Coordinator mode the same endpoint yields no degraded
	// classification — bodies are not inspected.
	plain, err := Run(context.Background(), Config{
		BaseURL: co.URL, QPS: 100, Duration: 100 * time.Millisecond,
		Deadline: time.Second, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Degraded != 0 || plain.ShardFailures != nil {
		t.Errorf("plain mode inspected bodies: %+v", plain)
	}
}

func TestSuccessRateZeroOnEmpty(t *testing.T) {
	if (Result{}).SuccessRate() != 0 {
		t.Error("empty result success rate not 0")
	}
}

package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"green/internal/cluster"
)

// failingTransport answers every exchange with a 500 and counts them.
type failingTransport struct{ attempts int }

func (f *failingTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	f.attempts++
	return http.StatusInternalServerError, buf, nil
}

// TestCoordinatorRetriesFlag: -retries N makes a failing shard see N+1
// attempts per request, and 0 means none beyond the first, as negative
// values do.
func TestCoordinatorRetriesFlag(t *testing.T) {
	for _, row := range []struct{ flag, attempts int }{{0, 1}, {1, 2}, {-1, 1}} {
		specs := []cluster.ShardSpec{{Name: "shard0", Replicas: []string{"http://r0"}}}
		cfg := coordinatorConfig(specs, 0.02, 1, row.flag, 0, time.Second, 1)
		ft := &failingTransport{}
		cfg.Transport = ft
		co, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=hello", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("-retries %d: status %d, want 503", row.flag, rec.Code)
		}
		if ft.attempts != row.attempts {
			t.Errorf("-retries %d: %d attempts, want %d", row.flag, ft.attempts, row.attempts)
		}
	}
}

// TestCoordinatorNegativeRequestTimeout: -request-timeout -1 disables the
// deadline on a worker only; a coordinator's shard retry loop needs one,
// so cluster.New refuses the flag at startup instead of the coordinator
// answering every query with a 503.
func TestCoordinatorNegativeRequestTimeout(t *testing.T) {
	specs := []cluster.ShardSpec{{Name: "shard0", Replicas: []string{"http://r0"}}}
	cfg := coordinatorConfig(specs, 0.02, 1, 1, 0, -time.Second, 1)
	cfg.Transport = &failingTransport{}
	if _, err := cluster.New(cfg); err == nil {
		t.Fatal("cluster.New accepted a negative request timeout")
	}
}

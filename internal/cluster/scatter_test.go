package cluster

import (
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"green/internal/serve"
)

// fleetWorker is the precise worker serveFleet shards three ways: every
// query has one right page.
var fleetWorker = serve.Config{Seed: 11, CalibrationQueries: 30, CorpusDocs: 2400,
	SampleInterval: 1 << 30, Disabled: true}

// serveFleet is a coordinator over three fleetWorker shards on the
// in-process transport.
func serveFleet(t *testing.T) *Coordinator {
	t.Helper()
	var shards [][]http.Handler
	for i := 0; i < 3; i++ {
		cfg := fleetWorker
		cfg.ShardIndex, cfg.ShardCount = i, 3
		w, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, []http.Handler{w.Handler()})
	}
	co, _ := clusterOf(t, Config{Seed: 11}, shards)
	return co
}

// eventually polls cond until it holds or two seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestScatterConcurrentClients: clients sharing the scatter workers get
// the pages a lone client gets.
func TestScatterConcurrentClients(t *testing.T) {
	h := serveFleet(t).Handler()
	want := make([]string, len(e2eQueries))
	for i, q := range e2eQueries {
		rec := get(t, h, "/search?q="+url.QueryEscape(q))
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body)
		}
		want[i] = rec.Body.String()
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				i := (c + r) % len(e2eQueries)
				rec := get(t, h, "/search?q="+url.QueryEscape(e2eQueries[i]))
				if got := rec.Body.String(); rec.Code != http.StatusOK || got != want[i] {
					t.Errorf("client %d, %q: status %d, page %s, want %s", c, e2eQueries[i], rec.Code, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestScatterDoesNotQueue: a request whose shard call is stuck holds
// the only scatter worker there is; the next request starts its own
// instead of waiting for that one to park.
func TestScatterDoesNotQueue(t *testing.T) {
	page := workerJSON(t, []int{1}, []float64{5}, false)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	stuckOnce := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-release
		}
		okWorker(page).ServeHTTP(w, r)
	})
	co, _ := clusterOf(t, Config{RequestTimeout: 5 * time.Second}, [][]http.Handler{{stuckOnce}, {okWorker(page)}})
	h := co.Handler()

	firstDone := make(chan int, 1)
	go func() { firstDone <- get(t, h, "/search?q=hello").Code }()
	<-entered
	start := time.Now()
	if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusOK || decodeCoord(t, rec.Body.Bytes()).Degraded {
		t.Fatalf("second request: status %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("second request took %v behind the first one's stuck shard call", elapsed)
	}
	select {
	case code := <-firstDone:
		t.Fatalf("first request returned %d before its shard was released", code)
	default:
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("first request: status %d", code)
	}
}

// TestScatterWorkersRetire: the workers a burst started are gone once
// the coordinator has sat idle for the interval.
func TestScatterWorkersRetire(t *testing.T) {
	co := serveFleet(t)
	co.pool.idle = 5 * time.Millisecond
	h := co.Handler()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				get(t, h, "/search?q=ocean+tree")
			}
		}()
	}
	wg.Wait()
	live := func() int {
		co.pool.mu.Lock()
		defer co.pool.mu.Unlock()
		return co.pool.live
	}
	if live() == 0 {
		t.Fatal("the burst started no scatter worker")
	}
	eventually(t, "every scatter worker has retired", func() bool {
		return live() == 0 && runtime.NumGoroutine() <= baseline
	})
	// And the pool starts over from empty.
	if rec := get(t, h, "/search?q=ocean+tree"); rec.Code != http.StatusOK {
		t.Fatalf("after the sweep: status %d: %s", rec.Code, rec.Body)
	}
	if live() == 0 {
		t.Error("a request after the sweep started no worker")
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"green/internal/chaos"
	"green/internal/core"
	"green/internal/serve"
	"green/internal/wire"
)

// e2eFleet is a real fleet: three shards, two serve workers each,
// listening on real sockets, reached through the chaos fault injector in
// front of the coordinator's own HTTPTransport.
type e2eFleet struct {
	co      *Coordinator
	faults  *chaos.HTTPFaults
	workers [3][2]*serve.Server
	hosts   [3][2]string // "127.0.0.1:port" keys for fault rules
	h       http.Handler
}

func newE2EFleet(t *testing.T) *e2eFleet {
	t.Helper()
	f := &e2eFleet{faults: chaos.NewHTTPFaults(7, &HTTPTransport{})}
	var shards []ShardSpec
	for i := 0; i < 3; i++ {
		spec := ShardSpec{Name: fmt.Sprintf("shard%d", i)}
		for j := 0; j < 2; j++ {
			w, err := serve.New(serve.Config{Seed: 11, CorpusDocs: 1500,
				CalibrationQueries: 30, SampleInterval: 5,
				ShardIndex: i, ShardCount: 3})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(w.Handler())
			t.Cleanup(srv.Close)
			u, err := url.Parse(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			f.workers[i][j] = w
			f.hosts[i][j] = u.Host
			spec.Replicas = append(spec.Replicas, srv.URL)
		}
		shards = append(shards, spec)
	}
	co, err := New(Config{
		Shards:         shards,
		SLA:            0.02,
		Quorum:         2,
		Retries:        1,
		RequestTimeout: 400 * time.Millisecond,
		Seed:           11,
		Transport:      f.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.co, f.h = co, co.Handler()
	return f
}

var e2eQueries = []string{
	"ocean tree", "river stone light", "amber sky", "deep harbor mist",
	"granite shore", "willow creek bend", "copper lantern", "salt wind",
}

func (f *e2eFleet) query(t *testing.T, i int) *httptest.ResponseRecorder {
	t.Helper()
	q := e2eQueries[i%len(e2eQueries)]
	return get(t, f.h, "/search?q="+url.QueryEscape(q))
}

// breakerState reads replica (i, j)'s circuit state.
func (f *e2eFleet) breakerState(i, j int) core.BreakerState {
	return f.co.shards[i].replicas[j].brk.Stats().State
}

// TestChaosEndToEnd drives the whole failure-model story against a real
// fleet: a killed replica (every request to it drops at the transport),
// a replica slowed far past the deadline budget, and a replica
// returning garbled bodies. Throughout, every coordinator response is
// a clean 200, a degraded 200, or a 503 — never a hang, never a merged
// garbage page — breakers isolate exactly the faulty replicas, and
// after recovery the control plane decomposes the fleet SLA into live
// per-shard budgets.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e chaos test with real sockets")
	}
	f := newE2EFleet(t)

	// Phase 1 — healthy fleet: every query is a clean, full-coverage 200.
	for i := 0; i < 20; i++ {
		rec := f.query(t, i)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthy query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		resp := decodeCoord(t, rec.Body.Bytes())
		if resp.Degraded || resp.ShardsOK != 3 {
			t.Fatalf("healthy query %d degraded: %+v", i, resp)
		}
	}

	// Phase 2 — one bad replica per shard: shard0's first replica is
	// killed, shard1's is slowed far past its deadline budget, shard2's
	// answers garbage. Retries must route every query to the healthy
	// replica: all 200s, no degradation, and no garbage merged.
	f.faults.SetRule(f.hosts[0][0], chaos.HTTPFault{DropEvery: 1})
	f.faults.SetRule(f.hosts[1][0], chaos.HTTPFault{DelayEvery: 1, Delay: 2 * time.Second})
	f.faults.SetRule(f.hosts[2][0], chaos.HTTPFault{GarbageEvery: 1})
	for i := 0; i < 40; i++ {
		rec := f.query(t, i)
		if rec.Code != http.StatusOK {
			t.Fatalf("one-bad-replica query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if resp := decodeCoord(t, rec.Body.Bytes()); resp.Degraded {
			t.Fatalf("one-bad-replica query %d degraded despite healthy replicas: %+v", i, resp)
		}
	}
	for i := 0; i < 3; i++ {
		if st := f.breakerState(i, 0); st == core.BreakerClosed {
			t.Errorf("shard%d faulty replica breaker still closed", i)
		}
		if st := f.breakerState(i, 1); st != core.BreakerClosed {
			t.Errorf("shard%d healthy replica breaker = %v, want closed (blast radius leaked)", i, st)
		}
	}
	drops, delays, _, garbled := f.faults.Counts()
	if drops == 0 || delays == 0 || garbled == 0 {
		t.Fatalf("fault schedule did not fire: drops=%d delays=%d garbled=%d", drops, delays, garbled)
	}

	// Phase 3 — shard0 loses both replicas: quorum (2 of 3) still holds,
	// so queries degrade to partial coverage naming the lost shard.
	f.faults.SetRule(f.hosts[0][1], chaos.HTTPFault{DropEvery: 1})
	for i := 0; i < 5; i++ {
		rec := f.query(t, i)
		if rec.Code != http.StatusOK {
			t.Fatalf("shard-down query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		resp := decodeCoord(t, rec.Body.Bytes())
		if !resp.Degraded || resp.ShardsOK != 2 {
			t.Fatalf("shard-down query %d not degraded to 2/3: %+v", i, resp)
		}
		if len(resp.FailedShards) != 1 || resp.FailedShards[0] != "shard0" {
			t.Fatalf("shard-down query %d blamed %v, want [shard0]", i, resp.FailedShards)
		}
	}

	// Phase 4 — shard1 down too: below quorum, the coordinator refuses
	// with 503 + Retry-After rather than serving a 1/3 page as truth.
	f.faults.SetRule(f.hosts[1][1], chaos.HTTPFault{DropEvery: 1})
	for i := 0; i < 3; i++ {
		rec := f.query(t, i)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("below-quorum query %d: status %d, want 503", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("below-quorum 503 missing Retry-After")
		}
	}
	if shed := f.co.ops.Snapshot().Shed; shed < 3 {
		t.Errorf("ops.shed = %d, want >= 3", shed)
	}
	if rec := get(t, f.h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during outage = %d, want 503", rec.Code)
	} else if body := rec.Body.String(); !strings.Contains(body, "shard0") || !strings.Contains(body, "shard1") {
		t.Fatalf("readyz does not name the down shards: %s", body)
	}

	// Phase 5 — recovery: faults off, breakers heal under request
	// pressure (consult-count cool-downs), readiness returns.
	f.faults.SetEnabled(false)
	recovered := false
	for i := 0; i < 3000; i++ {
		f.query(t, i)
		if get(t, f.h, "/readyz").Code == http.StatusOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("fleet did not recover within 3000 queries after faults cleared")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if st := f.breakerState(i, j); st != core.BreakerClosed {
				t.Fatalf("post-recovery breaker shard%d/%d = %v, want closed", i, j, st)
			}
		}
	}
	rec := f.query(t, 0)
	if resp := decodeCoord(t, rec.Body.Bytes()); rec.Code != http.StatusOK || resp.Degraded {
		t.Fatalf("post-recovery query degraded: %d %+v", rec.Code, resp)
	}

	// Phase 6 — the control plane over the recovered fleet: traffic
	// accumulates monitored samples, then one aggregation round pulls
	// per-shard losses, runs the combination search against the fleet
	// SLA, and pushes the winning level to every replica's controller.
	for i := 0; i < 300; i++ {
		f.query(t, i)
	}
	rep, err := f.co.AggregateOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsPolled != 3 {
		t.Fatalf("aggregation polled %d shards, want 3: %+v", rep.ShardsPolled, rep)
	}
	if rep.Pushes != 6 {
		t.Fatalf("aggregation pushed %d budgets, want 6 (3 shards x 2 replicas): %+v", rep.Pushes, rep)
	}
	if rep.EstLoss > f.co.cfg.SLA {
		t.Errorf("decomposition estimate %g exceeds fleet SLA %g", rep.EstLoss, f.co.cfg.SLA)
	}
	// The faults never touched the workers themselves, so their
	// monitored loss reflects ordinary calibrated serving: inside the
	// band the controllers target (generous bound — per-replica sample
	// counts are small here).
	if rep.FleetMonitored == 0 {
		t.Fatalf("no monitored samples across the fleet: %+v", rep)
	}
	if rep.FleetLoss > 0.2 {
		t.Errorf("fleet monitored loss %g did not converge toward the SLA band", rep.FleetLoss)
	}
	for i := 0; i < 3; i++ {
		want, ok := rep.Budgets[fmt.Sprintf("shard%d", i)]
		if !ok {
			t.Fatalf("no budget for shard%d: %+v", i, rep.Budgets)
		}
		for j := 0; j < 2; j++ {
			if got := f.workers[i][j].Loop().Level(); got != want {
				t.Errorf("worker %d/%d live level %g != pushed budget %g", i, j, got, want)
			}
		}
	}

	// The federated stats surface reflects the episode.
	var st wire.FleetStats
	srec := get(t, f.h, "/stats")
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats decode: %v: %s", err, srec.Body)
	}
	if st.Role != "coordinator" || st.ShardsHealthy != 3 || st.Aggregations != 1 {
		t.Errorf("stats = %+v", st)
	}
	for _, row := range st.Shards {
		if row.LastBudget == 0 {
			t.Errorf("shard %s stats row missing pushed budget: %+v", row.Name, row)
		}
	}
}

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"green/internal/core"
	"green/internal/metrics"
	"green/internal/search"
	"green/internal/wire"
)

// ShardSpec names one shard and lists its replicas' base URLs.
type ShardSpec struct {
	Name     string
	Replicas []string
}

// Config configures a Coordinator.
type Config struct {
	// Shards is the fleet layout: every shard must hold a disjoint
	// partition of the same corpus (workers started with matching
	// ShardIndex/ShardCount), and every replica of a shard must hold the
	// same partition.
	Shards []ShardSpec
	// SLA is the application-level QoS SLA the control plane decomposes
	// into per-shard budgets (default 0.02).
	SLA float64
	// Quorum is the minimum number of shards that must answer for a
	// request to succeed; below it the request is refused with 503 +
	// Retry-After. Partial coverage at or above quorum serves a degraded
	// 200. Default: a majority (n/2 + 1).
	Quorum int
	// RequestTimeout is the whole-request deadline each shard's retry
	// budget is carved from (default 2s). New refuses a negative one: the
	// retry loop has no attempt to make without a deadline.
	RequestTimeout time.Duration
	// Retries is how many times a failed shard attempt is retried on a
	// (preferably different) replica (default 1).
	Retries int
	// AggregateInterval is the control-plane period: each tick pulls
	// per-shard monitored loss, recomputes the SLA decomposition, and
	// pushes budgets (default 5s; Start launches the loop).
	AggregateInterval time.Duration
	// Seed determinizes backoff jitter.
	Seed int64
	// Transport is the wire seam (default HTTPTransport over
	// http.DefaultClient). New resolves every replica through an
	// *HTTPTransport, so a configuration it refuses fails here.
	Transport Transport
}

func (c Config) withDefaults() Config {
	if c.SLA == 0 {
		c.SLA = 0.02
	}
	if c.Quorum == 0 {
		c.Quorum = len(c.Shards)/2 + 1
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.AggregateInterval == 0 {
		c.AggregateInterval = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = &HTTPTransport{}
	}
	return c
}

// Coordinator scatters queries across shard workers and gathers the
// partials into the unsharded result page, degrading by quorum policy
// when shards fail. It is also the fleet control plane (see
// controlplane.go).
type Coordinator struct {
	cfg    Config
	shards []*shardClient
	rng    *lockedRand
	pool   *scatterPool

	queries atomic.Int64
	ops     metrics.OpsCounters
	scratch sync.Pool

	// Control-plane state (controlplane.go), guarded by mu.
	mu           sync.Mutex
	ctl          []shardControl
	aggregations atomic.Int64
	lastAggNote  string
}

// New validates the fleet layout and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	c := cfg.withDefaults()
	if len(c.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if c.Quorum < 1 || c.Quorum > len(c.Shards) {
		return nil, fmt.Errorf("cluster: quorum %d out of range [1, %d]", c.Quorum, len(c.Shards))
	}
	if !(0 <= c.SLA && c.SLA < 1) {
		return nil, fmt.Errorf("cluster: SLA must be in [0, 1)")
	}
	if c.RequestTimeout < 0 {
		return nil, fmt.Errorf("cluster: request timeout %v is negative", c.RequestTimeout)
	}
	seen := make(map[string]bool)
	co := &Coordinator{cfg: c, rng: newLockedRand(c.Seed)}
	co.pool = newScatterPool(&co.queries)
	for i := range c.Shards {
		spec := c.Shards[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("shard%d", i)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", spec.Name)
		}
		seen[spec.Name] = true
		if len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %q has no replicas", spec.Name)
		}
		for _, base := range spec.Replicas {
			_, err := parseBase(base)
			if ht, ok := c.Transport.(*HTTPTransport); ok && err == nil {
				_, err = ht.target(base)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %q: %w", spec.Name, err)
			}
		}
		co.shards = append(co.shards, newShardClient(spec, &co.cfg, co.rng))
	}
	co.ctl = make([]shardControl, len(co.shards))
	co.scratch.New = func() any {
		return &coordScratch{tasks: make([]scatterTask, len(co.shards))}
	}
	return co, nil
}

// coordScratch is the pooled per-request working set of the scatter
// path: the per-shard task slots, the merge heap, the response struct,
// and the encode buffer.
type coordScratch struct {
	tasks  []scatterTask
	wg     sync.WaitGroup
	merger search.Merger
	resp   wire.Page
	buf    []byte
}

// scatterTask is one shard's slot in a scatter. It is heap-resident in
// the scratch (a scatter worker needs only the pointer), so fanning out
// allocates nothing; rep and the transport body buffer it was parsed
// from keep their capacity across requests.
type scatterTask struct {
	shard    *shardClient
	rep      wire.SearchReply
	buf      []byte
	ctx      context.Context
	path     string
	deadline time.Time
	wg       *sync.WaitGroup
	err      error
}

func (t *scatterTask) search() {
	t.err = t.shard.call(t.ctx, http.MethodGet, t.path, nil, t.deadline, &t.buf, t.rep.ParseJSON)
}

// run is search on a scatter worker.
func (t *scatterTask) run() {
	t.search()
	t.wg.Done()
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+wire.PathHealthz, wire.Healthz)
	mux.HandleFunc("GET "+wire.PathReadyz, co.handleReadyz)
	mux.HandleFunc("GET "+wire.PathSearch, co.handleSearch)
	mux.HandleFunc("GET "+wire.PathStats, co.handleStats)
	return mux
}

// handleSearch scatters the query to every shard, merges the partial
// pages on exact scores, and applies the quorum policy to whatever
// subset answered.
func (co *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	rawQ, ok := wire.RawParam(r.URL.RawQuery, wire.ParamQuery)
	if !ok || rawQ == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	echo, err := url.QueryUnescape(rawQ)
	if err != nil || strings.TrimSpace(echo) == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	co.queries.Add(1)
	sc := co.scratch.Get().(*coordScratch)
	defer func() {
		sc.resp.Query = ""
		co.scratch.Put(sc)
	}()

	path := wire.SearchPath(rawQ)
	deadline := time.Now().Add(co.cfg.RequestTimeout)

	// Every shard but the last goes to a scatter worker; the last runs
	// here, on a goroutine that would otherwise only wait and whose stack
	// the server has already grown.
	n := len(co.shards)
	sc.wg.Add(n - 1)
	for i := 0; i < n; i++ {
		t := &sc.tasks[i]
		t.shard, t.ctx, t.path, t.deadline, t.wg = co.shards[i], r.Context(), path, deadline, &sc.wg
		if i < n-1 {
			co.pool.dispatch(t)
		}
	}
	sc.tasks[n-1].search()
	sc.wg.Wait()

	okCount, docsScored := 0, 0
	anyDegraded := false
	failed := sc.resp.FailedShards[:0]
	sc.merger.Reset(wire.PageSize)
	for i := 0; i < n; i++ {
		if sc.tasks[i].err != nil {
			co.shards[i].failReqs.Add(1)
			failed = append(failed, co.shards[i].name)
			continue
		}
		co.shards[i].okReqs.Add(1)
		okCount++
		rep := &sc.tasks[i].rep
		docsScored += rep.DocsScored
		if rep.Degraded {
			anyDegraded = true
		}
		for j, d := range rep.Docs {
			sc.merger.Push(d, rep.Scores[j])
		}
	}

	if okCount < co.cfg.Quorum {
		co.ops.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("cluster: %d/%d shards answered, quorum is %d",
			okCount, n, co.cfg.Quorum), http.StatusServiceUnavailable)
		return
	}
	degraded := okCount < n || anyDegraded
	if degraded {
		co.ops.Degraded.Add(1)
	}
	sc.resp.Query = echo
	sc.resp.Docs = sc.merger.TopNInto(sc.resp.Docs[:0])
	sc.resp.DocsScored = docsScored
	sc.resp.Degraded = degraded
	sc.resp.ShardsOK, sc.resp.ShardsTotal = okCount, n
	sc.resp.FailedShards = failed
	sc.buf = sc.resp.AppendJSON(sc.buf[:0])
	wire.WriteRaw(w, sc.buf)
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	resp := wire.FleetStats{
		Role:         "coordinator",
		SLA:          co.cfg.SLA,
		Quorum:       co.cfg.Quorum,
		Queries:      co.queries.Load(),
		ShardsTotal:  len(co.shards),
		Aggregations: co.aggregations.Load(),
		LastAgg:      co.lastAggNote,
		Ops:          co.ops.Snapshot(),
	}
	var lossSum float64
	for i, s := range co.shards {
		ctl := &co.ctl[i]
		row := wire.ShardStats{
			Name:          s.name,
			Healthy:       s.healthy(),
			OK:            s.okReqs.Load(),
			Failed:        s.failReqs.Load(),
			LastLoss:      ctl.lastLoss,
			LastMonitored: ctl.lastMonitored,
			LastLevel:     ctl.lastLevel,
			LastBudget:    ctl.lastBudget,
		}
		if row.Healthy {
			resp.ShardsHealthy++
		}
		lossSum += ctl.lastLoss * float64(ctl.lastMonitored)
		resp.FleetMonitored += ctl.lastMonitored
		for _, rep := range s.replicas {
			b := rep.brk.Stats()
			row.Replicas = append(row.Replicas, wire.ReplicaStats{
				URL:      rep.base,
				Breaker:  b.State.String(),
				Trips:    b.Trips,
				Attempts: rep.attempts.Load(),
				Failures: rep.failures.Load(),
			})
		}
		resp.Shards = append(resp.Shards, row)
	}
	if resp.FleetMonitored > 0 {
		resp.FleetLoss = lossSum / float64(resp.FleetMonitored)
	}
	co.mu.Unlock()
	wire.WriteJSON(w, resp)
}

// handleReadyz degrades readiness naming the unhealthy shards: any
// replica with a non-closed breaker is reported, and losing quorum is
// its own reason.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	healthyShards := 0
	for _, s := range co.shards {
		if s.healthy() {
			healthyShards++
		}
		for _, rep := range s.replicas {
			if st := rep.brk.Stats().State; st != core.BreakerClosed {
				reasons = append(reasons, s.name+": "+rep.base+": breaker "+st.String())
			}
		}
	}
	if healthyShards < co.cfg.Quorum {
		reasons = append(reasons, fmt.Sprintf("below quorum: %d/%d shards healthy, quorum is %d",
			healthyShards, len(co.shards), co.cfg.Quorum))
	}
	wire.WriteReadyz(w, reasons)
}

// Package loadgen drives a running greenserve instance with an open-loop
// query load at a fixed offered rate and measures latency and deadline
// success — the real-HTTP-stack analog of the paper's Figure 12
// methodology ("the service will provide a response within 300ms for
// 99.9% of its requests for a peak client load of 500 requests per
// second").
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"green/internal/wire"
	"green/internal/workload"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// QPS is the offered arrival rate (open-loop mode).
	QPS float64
	// Duration is the run length.
	Duration time.Duration
	// Deadline is the per-request latency SLA.
	Deadline time.Duration
	// MaxInFlight bounds concurrent requests (default 256).
	MaxInFlight int
	// Seed determinizes the query mix.
	Seed int64
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Closed switches to closed-loop mode: Workers goroutines issue
	// requests back to back for Duration, measuring the service's
	// sustainable throughput (the paper's QPS metric) instead of the
	// behavior at a fixed offered rate. QPS is ignored.
	Closed bool
	// Workers is the closed-loop concurrency (default 8).
	Workers int
	// Coordinator marks the target as a cluster coordinator: response
	// bodies are inspected so partial-coverage pages count as Degraded
	// (still OK) and their failed_shards attribute the cause per shard.
	Coordinator bool
}

// Result summarizes a run.
type Result struct {
	// Sent is the number of requests issued; Completed those that got a
	// response; Failed those with transport or HTTP errors.
	Sent, Completed, Failed int
	// Shed counts requests the service deliberately rejected with 503
	// (its in-flight cap, or a coordinator below quorum) — degraded-mode
	// load shedding, distinct from a transport failure: the service
	// answered, it just refused the work.
	Shed int
	// Degraded counts completed coordinator responses served from
	// partial shard coverage (Coordinator mode only). They count in
	// Completed too — the page arrived, just without every shard.
	Degraded int
	// ShardFailures attributes degraded responses to the shards the
	// coordinator blamed (failed_shards), keyed by shard name
	// (Coordinator mode only; nil otherwise).
	ShardFailures map[string]int
	// WithinDeadline counts completed requests meeting the Deadline.
	WithinDeadline int
	// P50, P95, P99 are latency percentiles of completed requests.
	P50, P95, P99 time.Duration
	// AchievedQPS is completions per second of wall time.
	AchievedQPS float64
}

// SuccessRate is the fraction of sent requests completing within the
// deadline — the paper's Figure 12 y-axis.
func (r Result) SuccessRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.WithinDeadline) / float64(r.Sent)
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("sent=%d ok=%d", r.Sent, r.Completed)
	if r.Degraded > 0 || r.ShardFailures != nil {
		s += fmt.Sprintf(" degraded=%d", r.Degraded)
	}
	return s + fmt.Sprintf(" shed=%d fail=%d within-deadline=%.1f%% p50=%v p95=%v p99=%v achieved=%.1f qps",
		r.Shed, r.Failed, 100*r.SuccessRate(), r.P50, r.P95, r.P99, r.AchievedQPS)
}

// queryWords is the synthetic vocabulary the generator draws from.
var queryWords = []string{
	"ocean", "tree", "river", "cloud", "stone", "light", "wind", "fire",
	"earth", "snow", "rain", "storm", "leaf", "night", "star", "moon",
	"iron", "glass", "paper", "road", "bridge", "tower", "field", "bird",
}

// Run executes the load and gathers measurements. It returns an error
// for invalid configuration; transport failures are counted in the
// result instead.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, errors.New("loadgen: BaseURL required")
	}
	if (cfg.QPS <= 0 && !cfg.Closed) || cfg.Duration <= 0 {
		return Result{}, errors.New("loadgen: QPS and Duration must be positive")
	}
	if cfg.Deadline <= 0 {
		return Result{}, errors.New("loadgen: Deadline must be positive")
	}
	if cfg.Closed {
		return runClosed(ctx, cfg)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 256
	}
	client := cfg.Client
	if client == nil {
		// The transport timeout is deliberately independent of the
		// measurement deadline: a request may miss the SLA and still
		// complete (it counts as completed but not within deadline).
		client = &http.Client{Timeout: 30 * time.Second}
	}
	rng := workload.NewRand(cfg.Seed)

	interval := time.Duration(float64(time.Second) / cfg.QPS)
	if interval <= 0 {
		return Result{}, fmt.Errorf("loadgen: QPS %g leaves no interval between arrivals", cfg.QPS)
	}
	total := int(cfg.Duration.Seconds() * cfg.QPS)
	if total < 1 {
		total = 1
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       Result
		wg        sync.WaitGroup
	)
	sem := make(chan struct{}, maxInFlight)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	for i := 0; i < total; i++ {
		q := queryWords[rng.Intn(len(queryWords))] + "+" +
			queryWords[rng.Intn(len(queryWords))]
		select {
		case <-ctx.Done():
			i = total // stop issuing
			continue
		case <-ticker.C:
		}
		res.Sent++
		select {
		case sem <- struct{}{}:
		default:
			// Saturated in-flight budget: count as a failed (dropped)
			// request, as an overloaded front end would.
			res.Failed++
			continue
		}
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			rep := doRequest(ctx, client, cfg, q)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch rep.outcome {
			case reqShed:
				res.Shed++
				return
			case reqFailed:
				res.Failed++
				return
			}
			res.Completed++
			res.recordReport(rep)
			latencies = append(latencies, lat)
			if lat <= cfg.Deadline {
				res.WithinDeadline++
			}
		}(q)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Completed) / elapsed
	}
	res.P50, res.P95, res.P99 = percentiles(latencies)
	return res, nil
}

// runClosed implements closed-loop measurement: Workers goroutines issue
// requests back to back until the duration elapses.
func runClosed(ctx context.Context, cfg Config) (Result, error) {
	workers := cfg.Workers
	if workers == 0 {
		workers = 8
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       Result
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := workload.NewRand(seed)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := queryWords[rng.Intn(len(queryWords))] + "+" +
					queryWords[rng.Intn(len(queryWords))]
				t0 := time.Now()
				rep := doRequest(ctx, client, cfg, q)
				lat := time.Since(t0)
				mu.Lock()
				res.Sent++
				switch rep.outcome {
				case reqOK:
					res.Completed++
					res.recordReport(rep)
					latencies = append(latencies, lat)
					if lat <= cfg.Deadline {
						res.WithinDeadline++
					}
				case reqShed:
					res.Shed++
				default:
					res.Failed++
				}
				mu.Unlock()
			}
		}(cfg.Seed + int64(w))
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Completed) / elapsed
	}
	res.P50, res.P95, res.P99 = percentiles(latencies)
	return res, nil
}

// reqOutcome classifies one request.
type reqOutcome int

const (
	reqOK reqOutcome = iota
	reqShed
	reqFailed
)

// reqReport is one request's classification; FailedShards is populated
// only for degraded coordinator responses.
type reqReport struct {
	outcome      reqOutcome
	degraded     bool
	failedShards []string
}

func doRequest(ctx context.Context, client *http.Client, cfg Config, q string) reqReport {
	u := cfg.BaseURL + wire.PathSearch + "?" + wire.ParamQuery + "=" + url.QueryEscape(q)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return reqReport{outcome: reqFailed}
	}
	resp, err := client.Do(req)
	if err != nil {
		return reqReport{outcome: reqFailed}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body)
		return reqReport{outcome: reqShed}
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		return reqReport{outcome: reqFailed}
	}
	if !cfg.Coordinator {
		_, _ = io.Copy(io.Discard, resp.Body)
		return reqReport{outcome: reqOK}
	}
	// Coordinator mode: a 200 may still be a partial page; the body says
	// which shards were missing.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return reqReport{outcome: reqFailed}
	}
	var page wire.Page
	if err := json.Unmarshal(body, &page); err != nil {
		return reqReport{outcome: reqFailed}
	}
	return reqReport{outcome: reqOK, degraded: page.Degraded, failedShards: page.FailedShards}
}

// recordReport folds one classified request into the result (caller
// holds the mutex).
func (r *Result) recordReport(rep reqReport) {
	if rep.degraded {
		r.Degraded++
	}
	for _, name := range rep.failedShards {
		if r.ShardFailures == nil {
			r.ShardFailures = make(map[string]int)
		}
		r.ShardFailures[name]++
	}
}

func percentiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95), at(0.99)
}

// Command greenserve runs the Green-approximated search back-end as an
// HTTP service — the web-service-with-SLA deployment the paper motivates.
//
// Usage:
//
//	greenserve -addr :8080 -sla 0.02
//	greenserve -addr :8080 -state-dir /var/lib/greenserve   # crash-safe state
//
// Sharded serving: -role worker serves one corpus partition, -role
// coordinator scatter/gathers a fleet of workers and runs the
// fleet-level SLA control plane.
//
//	greenserve -role worker -addr :8081 -shard-index 0 -shard-count 3
//	greenserve -role coordinator -addr :8080 \
//	    -shards 'http://h1:8081,http://h2:8081;http://h3:8082,http://h4:8082'
//
// (-shards separates shards with ';' and a shard's replicas with ','.)
//
// Endpoints: /search?q=..., /stats, /config, /healthz, /readyz (workers
// add /model and /budget; the coordinator serves /search, /stats,
// /healthz, /readyz).
//
// On SIGINT/SIGTERM the server drains in-flight requests via
// http.Server.Shutdown and, when -state-dir is set, writes a final
// controller snapshot so the next start resumes recalibration where
// this one stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"green/internal/chaos"
	"green/internal/cluster"
	"green/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		sla        = flag.Float64("sla", 0.02, "fraction of queries allowed a changed result page")
		seed       = flag.Int64("seed", 42, "corpus seed")
		docs       = flag.Int("docs", 0, "synthetic corpus size (0 uses the default)")
		calQueries = flag.Int("cal-queries", 0, "calibration query count (0 uses the default)")

		stateDir     = flag.String("state-dir", "", "directory for crash-safe controller snapshots (empty disables persistence)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Second, "background snapshot period (negative is refused)")
		maxInFlight  = flag.Int("max-in-flight", 128, "concurrent /search cap before shedding with 503 (negative disables)")
		qcacheSize   = flag.Int("qcache", 0, "preparsed-query cache entries (0 uses the default, negative disables)")
		reqTimeout   = flag.Duration("request-timeout", 2*time.Second, "per-request deadline; partial results are served at expiry (negative disables it on a worker only; a coordinator refuses it)")
		drain        = flag.Duration("drain-timeout", 10*time.Second, "in-flight drain budget at shutdown")

		chaosSeed       = flag.Int64("chaos-seed", 1, "fault-injection schedule seed")
		chaosPanicEvery = flag.Int("chaos-panic-every", 0, "inject a QoS-callback panic every Nth call (0 disables; testing only)")
		chaosDelayEvery = flag.Int("chaos-delay-every", 0, "inject a QoS-callback latency spike every Nth call (0 disables; testing only)")

		role        = flag.String("role", "", `"" (single server), "worker" (one shard), or "coordinator" (scatter/gather front end)`)
		shardIndex  = flag.Int("shard-index", 0, "worker: this worker's shard (0-based)")
		shardCount  = flag.Int("shard-count", 0, "worker: total shards in the fleet")
		shardList   = flag.String("shards", "", "coordinator: replica URLs, ';' between shards, ',' between a shard's replicas")
		quorum      = flag.Int("quorum", 0, "coordinator: shards required for a 200 (0 means majority)")
		retries     = flag.Int("retries", 1, "coordinator: per-shard retry budget (0 or negative disables)")
		aggInterval = flag.Duration("aggregate-interval", 5*time.Second, "coordinator: fleet SLA aggregation period (0 disables the control plane)")
	)
	flag.Parse()

	if *role == "coordinator" {
		runCoordinator(*addr, *shardList, *sla, *quorum, *retries, *aggInterval, *seed, *reqTimeout, *drain)
		return
	}
	if *role != "" && *role != "worker" {
		log.Fatalf("greenserve: unknown -role %q (want worker or coordinator)", *role)
	}
	if *role == "worker" && *shardCount < 1 {
		log.Fatalf("greenserve: -role worker requires -shard-count")
	}

	inj := chaos.New(chaos.Config{
		Seed: *chaosSeed, PanicEvery: *chaosPanicEvery, DelayEvery: *chaosDelayEvery,
	})
	if inj != nil {
		log.Printf("CHAOS ENABLED: panic every %d, delay every %d (seed %d)",
			*chaosPanicEvery, *chaosDelayEvery, *chaosSeed)
	}

	log.Printf("building corpus and calibrating (seed %d)...", *seed)
	s, err := serve.New(serve.Config{
		SLA: *sla, Seed: *seed,
		CorpusDocs:         *docs,
		CalibrationQueries: *calQueries,
		ShardIndex:         *shardIndex,
		ShardCount:         *shardCount,
		StateDir:           *stateDir,
		SnapshotInterval:   *snapInterval,
		MaxInFlight:        *maxInFlight,
		RequestTimeout:     *reqTimeout,
		QueryCacheSize:     *qcacheSize,
		Chaos:              inj,
	})
	if err != nil {
		log.Fatalf("greenserve: %v", err)
	}
	boot := s.Boot()
	log.Printf("calibrated: SLA %.2f%% -> initial M = %.0f documents (engine %.1f ms, calibrate %.1f ms, restore %.1f ms)",
		*sla*100, s.Loop().Level(), boot.EngineMS, boot.CalibrateMS, boot.RestoreMS)
	log.Printf("controller %q: level %.0f, approx enabled %v",
		s.Loop().Name(), s.Loop().Level(), s.Loop().ApproxEnabled())
	if *stateDir != "" {
		log.Printf("state: %s (%s)", *stateDir, s.RestoreNote())
	}

	if *role == "worker" {
		log.Printf("worker: shard %d of %d (postings for docs ≡ %d mod %d over a %d-doc corpus)",
			*shardIndex, *shardCount, *shardIndex, *shardCount, s.Engine().Docs())
	}

	stopSnapshots := s.StartSnapshotLoop()
	serveUntilSignal(*addr, s.Handler(), *drain, "try /search?q=hello+world, /stats", func() {
		stopSnapshots()
		if err := s.SaveState(); err != nil {
			log.Fatalf("greenserve: final snapshot failed: %v", err)
		}
		if *stateDir != "" {
			log.Printf("final snapshot written to %s", *stateDir)
		}
	})
}

// serveUntilSignal is the one serving lifecycle of worker and
// coordinator: listen, announce, serve until SIGINT/SIGTERM, drain
// in-flight requests for up to drain, then run afterDrain.
func serveUntilSignal(addr string, h http.Handler, drain time.Duration, banner string, afterDrain func()) {
	// Explicit Listen (rather than ListenAndServe) so ":0" resolves and
	// logs a real port — fleet smoke tests start workers on ephemeral
	// ports and scrape the address from this line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("greenserve: %v", err)
	}
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("listening on %s (%s)\n", ln.Addr(), banner)

	select {
	case err := <-errCh:
		log.Fatalf("greenserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (up to %v)...", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("greenserve: drain incomplete: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("greenserve: %v", err)
	}
	afterDrain()
}

// parseShards turns "u1,u2;u3,u4" into one ShardSpec per ';' group,
// with ',' separating a shard's replica URLs.
func parseShards(list string) ([]cluster.ShardSpec, error) {
	var specs []cluster.ShardSpec
	for i, group := range strings.Split(list, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicas = append(replicas, strings.TrimSuffix(u, "/"))
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("shard %d has no replica URLs", i)
		}
		specs = append(specs, cluster.ShardSpec{
			Name:     fmt.Sprintf("shard%d", i),
			Replicas: replicas,
		})
	}
	return specs, nil
}

// coordinatorConfig maps the coordinator's flags onto cluster.Config.
// cluster.Config reads a zero Retries as its default of one retry, so
// -retries 0 travels as -1: no retry, as the flag says.
func coordinatorConfig(specs []cluster.ShardSpec, sla float64, quorum, retries int, aggInterval, reqTimeout time.Duration, seed int64) cluster.Config {
	if retries == 0 {
		retries = -1
	}
	return cluster.Config{
		Shards:            specs,
		SLA:               sla,
		Quorum:            quorum,
		Retries:           retries,
		AggregateInterval: aggInterval,
		RequestTimeout:    reqTimeout,
		Seed:              seed,
	}
}

// runCoordinator serves the scatter/gather front end over an existing
// worker fleet and, unless disabled, runs the fleet-level SLA
// aggregation loop against it.
func runCoordinator(addr, shardList string, sla float64, quorum, retries int, aggInterval time.Duration, seed int64, reqTimeout, drain time.Duration) {
	if shardList == "" {
		log.Fatalf("greenserve: -role coordinator requires -shards")
	}
	specs, err := parseShards(shardList)
	if err != nil {
		log.Fatalf("greenserve: -shards: %v", err)
	}
	transport := &cluster.HTTPTransport{}
	cfg := coordinatorConfig(specs, sla, quorum, retries, aggInterval, reqTimeout, seed)
	cfg.Transport = transport
	co, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("greenserve: %v", err)
	}
	for _, spec := range specs {
		log.Printf("coordinator: %s -> %s", spec.Name, strings.Join(spec.Replicas, " "))
	}
	stopAgg := func() {}
	if aggInterval > 0 {
		stopAgg = co.Start()
		log.Printf("coordinator: fleet SLA %.2f%% aggregated every %v", sla*100, aggInterval)
	}
	serveUntilSignal(addr, co.Handler(), drain, fmt.Sprintf("coordinating %d shard(s)", len(specs)), func() {
		stopAgg()
		transport.CloseIdleConnections()
	})
}

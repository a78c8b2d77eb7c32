// Package serve exposes the Green-approximated search back-end as an
// HTTP service — the deployment shape the paper motivates ("cloud-based
// companies provide web services with Service Level Agreements").
//
// GET /search?q=<words> returns ranked results as JSON; the per-query
// matching-document loop runs under the Green loop controller, one scan
// per request in blocks — a monitored request's QoS is read off that
// same scan, not off reruns. Around it sit /stats, /config, /model,
// /budget, /healthz and /readyz: every path, parameter and JSON shape is
// declared in internal/wire, the one package worker and coordinator
// share (endpoint table: DESIGN.md, "Wire protocol").
// This file is bootstrap and calibration; search.go is the zero-alloc
// /search request path, top to bottom; admin.go holds the cold handlers
// and the persistence lifecycle.
//
// The serving path degrades instead of dying: requests beyond the
// in-flight cap are shed with 503 + Retry-After, requests that hit
// their deadline return the partial results scored so far, QoS-callback
// panics are contained by the controller's circuit breaker
// (internal/core/resilience.go), and the controller state is
// periodically persisted crash-safely (internal/persist) so a restart
// resumes recalibration instead of starting cold.
package serve

import (
	"errors"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"green/internal/chaos"
	"green/internal/core"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/persist"
	"green/internal/search"
	"green/internal/wire"
	"green/internal/workload"
)

const (
	// matchName names the match-loop controller. Its snapshot carries
	// the name, and Loop.Restore refuses a document under any other.
	matchName = wire.MatchController
	// stateName keys the match loop's snapshot in the state store. It is
	// the key the multi-controller bundle was written under, so an older
	// bundle is read, refused by the loop's name check, and booted past
	// cold with a "rejected" note — never silently ignored.
	stateName = "serve.controllers"
)

// Config configures the service.
type Config struct {
	// SLA is the fraction of queries allowed to return a different
	// top-N result page (default 0.02).
	SLA float64
	// Seed determinizes the synthetic corpus.
	Seed int64
	// CalibrationQueries sizes the startup calibration (default 500).
	CalibrationQueries int
	// SampleInterval is the recalibration monitoring interval (default
	// 10000, with a 100-query window policy: a 1% monitoring duty cycle,
	// the rate at which the paper found Green's overhead
	// indistinguishable from the base version).
	SampleInterval int
	// CorpusDocs overrides the synthetic corpus size (default 20000);
	// tests use smaller corpora.
	CorpusDocs int
	// Disabled forces precise execution (the paper's base version): the
	// loop controller is still installed, but QoS_Approx always answers
	// "do not approximate".
	Disabled bool
	// Selector enables the proactive Select stage on the match loop:
	// calibration additionally fits per-feature-bucket loss curves
	// (bucketed on summed posting-list length) and installs the built
	// selector, so each query's approximation level is chosen from its
	// own bucket before the scan runs instead of the one fleet-wide
	// reactive level. Off by default — the reactive law alone is the
	// paper's configuration.
	Selector bool
	// ShardIndex/ShardCount make this server a shard worker: the engine
	// keeps only its partition of the corpus (global doc ids and scoring
	// preserved — see search.Config), so a coordinator can scatter a
	// query across ShardCount workers and merge the partials into the
	// unsharded page. ShardCount zero or one serves the whole corpus.
	ShardIndex, ShardCount int

	// MaxInFlight caps concurrently served /search requests; excess
	// requests are shed with 503 + Retry-After rather than queued
	// unboundedly. Zero means 128; negative disables the cap.
	MaxInFlight int
	// RequestTimeout bounds one /search request; at the deadline the
	// scan stops and the partial results scored so far are served
	// (degraded), rather than the request queuing forever. Zero means
	// 2s; negative disables the deadline.
	RequestTimeout time.Duration
	// StateDir, when non-empty, enables crash-safe persistence of the
	// controller state: a validated snapshot is restored at startup and
	// snapshots are written every SnapshotInterval and on SaveState.
	StateDir string
	// SnapshotInterval is the period of the background snapshot loop
	// (default 5s; negative is refused).
	SnapshotInterval time.Duration
	// QueryCacheSize bounds the preparsed-query cache on the /search
	// path. The workload's Zipfian head means a few thousand entries
	// absorb nearly all traffic; a hit serves without parsing — or
	// allocating — anything. Zero means 4096; negative disables caching.
	QueryCacheSize int
	// BreakerThreshold / BreakerCooldown tune the controller's panic
	// circuit breaker (see core.LoopConfig); zeros take the core
	// defaults.
	BreakerThreshold int
	BreakerCooldown  int
	// Chaos, when non-nil, injects deterministic faults into the QoS
	// callbacks (the fault-injection harness; tests and the chaos-smoke
	// CI stage).
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.SLA == 0 {
		c.SLA = 0.02
	}
	if c.CalibrationQueries == 0 {
		c.CalibrationQueries = 500
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 10000
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Second
	}
	if c.QueryCacheSize == 0 {
		c.QueryCacheSize = 4096
	}
	return c
}

// Server is the Green-approximated search service. Its one
// approximation site is the match loop; persistence, /stats, /model,
// /budget and readiness all speak about that one controller.
type Server struct {
	cfg    Config
	engine *search.Engine
	loop   *core.Loop // the match loop

	queries    atomic.Int64
	docsScored atomic.Int64
	// sampled holds what the last sampleRing monitored requests served —
	// monitoredQueries counts them and so picks the slot — as the sample
	// /stats estimates the precise per-query work from (preciseDocs). A
	// monitored scan stops at its certificate, so the documents it scored
	// are not the match count; the request path pays one pointer store,
	// and /stats the counting.
	sampled          [sampleRing]atomic.Pointer[cachedQuery]
	monitoredQueries atomic.Int64

	// Resilience state.
	inFlight    atomic.Int64
	qcache      *queryCache
	ops         metrics.OpsCounters
	store       *persist.Store
	modelSig    string
	restoreNote string    // "disabled" | "cold" | "restored" | "rejected: …"
	boot        wire.Boot // what New's stages cost

	// matchModel backs /model: the match loop's per-level candidate
	// settings for the coordinator's combination search.
	matchModel *model.LoopModel
}

// New builds the corpus, runs the calibration phase, constructs the
// operational loop controller, and — when a state directory is
// configured — restores the most recent valid controller snapshot.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.SLA < 0 || c.SLA >= 1 {
		return nil, errors.New("serve: SLA must be in [0, 1)")
	}
	if c.SnapshotInterval < 0 {
		return nil, errors.New("serve: snapshot interval must not be negative")
	}
	var clock bootClock
	clock.lapMS()
	engine, err := search.NewEngine(search.Config{
		Seed: c.Seed, Docs: c.CorpusDocs,
		ShardIndex: c.ShardIndex, ShardCount: c.ShardCount,
	})
	if err != nil {
		return nil, err
	}
	engineMS := clock.lapMS()
	s := &Server{
		cfg: c, engine: engine, restoreNote: "disabled",
		qcache: newQueryCache(c.QueryCacheSize),
	}

	// Calibration phase.
	calQueries, err := engine.GenerateQueries(workload.Split(c.Seed, 1), c.CalibrationQueries)
	if err != nil {
		return nil, err
	}
	knots := []float64{100, 250, 500, 1000, 2500, 5000, 10000}
	var feat func(search.Query) core.Features
	if c.Selector {
		feat = func(q search.Query) core.Features { return s.queryFeat(q.Terms) }
	}
	m, sel, err := s.calibrateLoop(knots, calQueries, feat, s.knotLosses(knots))
	if err != nil {
		return nil, err
	}
	s.loop, err = core.NewLoop(core.LoopConfig{
		Name: matchName, Model: m, SLA: c.SLA,
		SampleInterval: c.SampleInterval,
		Policy: &core.WindowedPolicy{
			Window: 100, BaseInterval: c.SampleInterval,
		},
		Disabled:         c.Disabled,
		BreakerThreshold: c.BreakerThreshold,
		BreakerCooldown:  c.BreakerCooldown,
	})
	if err != nil {
		return nil, err
	}
	if sel != nil {
		// Install before any restore so a selector-bearing snapshot can
		// rehydrate the bucket correction factors.
		s.loop.InstallSelector(sel)
	}
	s.matchModel = m

	// The signature binds snapshots to the exact calibration and serving
	// configuration: a different corpus seed, size, SLA, page size, or
	// shard partition invalidates the persisted levels.
	sigParts := []any{m, c.SLA, c.Seed, engine.Docs(), wire.PageSize, c.ShardIndex, c.ShardCount}

	s.boot = wire.Boot{EngineMS: engineMS, CalibrateMS: clock.lapMS()}
	if c.StateDir != "" {
		if err := s.openStateAndRestore(sigParts); err != nil {
			return nil, err
		}
		s.boot.RestoreMS = clock.lapMS()
	}
	return s, nil
}

// bootClock times New's stages, each from the end of the one before. The
// readings go to /stats and the log and nowhere near a model.
type bootClock struct{ mark time.Time }

// lapMS returns the milliseconds since the previous call.
func (c *bootClock) lapMS() float64 {
	now := time.Now()
	d := now.Sub(c.mark)
	c.mark = now
	return float64(d.Microseconds()) / 1e3
}

// knotLosses returns calibrateLoop's measure function: the loss and
// work of stopping a query's scan at each of the ascending knots, read
// off one pass of
// the block kernel — the page is snapshotted as the scan crosses each
// knot, the scan runs on until its page is final (Scan.Final: the
// exhaustive page, without scoring what cannot enter it), and every
// snapshot is judged against that precise page. That is one scan per
// training query where capping a fresh search at every knot is one per
// knot plus the precise one, and the pages are the same pages (Scan ≡
// Search at equal document counts).
func (s *Server) knotLosses(knots []float64) func(q search.Query, losses, work []float64) {
	var (
		scan    = new(search.Scan)
		pages   = make([][]int, len(knots))
		precise []int
	)
	return func(q search.Query, losses, work []float64) {
		scan.Reset(s.engine, q, wire.PageSize)
		for i, k := range knots {
			scan.StepN(int(k) - scan.Processed())
			pages[i] = scan.TopNInto(pages[i])
			work[i] = float64(scan.Processed())
		}
		for !scan.Final() && scan.StepN(scanBlock) == scanBlock {
		}
		precise = scan.TopNInto(precise)
		for i := range knots {
			losses[i] = metrics.QueryLoss(precise, pages[i])
		}
	}
}

// calibrateLoop runs the calibration phase of the match loop: measure
// fills in, for each training query, the loss and work of capping the
// scan at each candidate level against the uncapped (precise) result. A
// non-nil feat function additionally tags every run with its query's
// feature vector (bucket edges derived from the training distribution's
// quartiles) and builds the per-input selector beside the reactive
// model; a degenerate feature distribution silently yields no selector
// (reactive-only).
func (s *Server) calibrateLoop(knots []float64, calQueries []search.Query, feat func(search.Query) core.Features, measure func(q search.Query, losses, work []float64)) (*model.LoopModel, *core.BucketSelector, error) {
	baseLevel := float64(s.engine.Docs())
	cal, err := core.NewLoopCalibration(matchName, knots, baseLevel, baseLevel)
	if err != nil {
		return nil, nil, err
	}
	if feat != nil {
		keys := make([]float64, 0, len(calQueries))
		for _, q := range calQueries {
			if f := feat(q); f.Valid {
				keys = append(keys, f.Key)
			}
		}
		edges := featureEdges(keys, selectorBuckets)
		if edges == nil {
			feat = nil
		} else if err := cal.FeatureBuckets(edges); err != nil {
			return nil, nil, err
		}
	}
	losses := make([]float64, len(knots))
	work := make([]float64, len(knots))
	for _, q := range calQueries {
		measure(q, losses, work)
		if feat != nil {
			if err := cal.AddRunFeat(feat(q), losses, work); err != nil {
				return nil, nil, err
			}
		} else if err := cal.AddRun(losses, work); err != nil {
			return nil, nil, err
		}
	}
	m, err := cal.Build()
	if err != nil || feat == nil {
		return m, nil, err
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		return nil, nil, err
	}
	return m, sel, nil
}

// Proactive per-input control on the serving path. With Config.Selector
// set, calibration tags every training query with its feature — the
// summed posting-list length of its terms — and fits per-feature-bucket
// loss curves beside the global reactive model. The built
// core.BucketSelector is installed on the match loop, so each served
// query's approximation level is chosen from its own bucket's curve
// (Select) before the scan runs, while the monitored sampling stream
// repairs bucket-level drift (Correct). Queries outside the calibrated
// feature domain fall back to the reactive level; the /stats selector
// counters say how often.

// selectorBuckets is the number of feature buckets the serving selector
// partitions the posting-mass domain into. Quartiles are enough to
// separate the short conjunctive-looking tail from the heavy Zipf head
// without starving any bucket of calibration runs.
const selectorBuckets = 4

// queryFeat maps one parsed query onto the controller feature space:
// Key is the summed document frequency of the query's terms (the upper
// bound on its match count — the property that determines how many
// scanned documents a given top-N page needs).
func (s *Server) queryFeat(terms []int) core.Features {
	if len(terms) == 0 {
		return core.Features{}
	}
	mass := 0
	for _, t := range terms {
		mass += s.engine.DocFreq(t)
	}
	return core.Features{Key: float64(mass), Valid: true}
}

// featureEdges derives strictly-ascending bucket edges from the
// calibration queries' feature keys: quantile cut points, deduplicated,
// with the top edge padded to twice the observed maximum so serving
// queries somewhat heavier than any calibration query still land in the
// last bucket instead of falling back to the reactive law. Returns nil
// when the key distribution is too degenerate to bucket (fewer than two
// distinct edges) — the caller then serves reactive-only.
func featureEdges(keys []float64, buckets int) []float64 {
	if len(keys) == 0 || buckets < 1 {
		return nil
	}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, buckets+1)
	edges = append(edges, sorted[0])
	for b := 1; b < buckets; b++ {
		q := sorted[b*len(sorted)/buckets]
		if q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	top := sorted[len(sorted)-1] * 2
	if top <= edges[len(edges)-1] {
		top = edges[len(edges)-1] + 1
	}
	return append(edges, top)
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+wire.PathHealthz, wire.Healthz)
	mux.HandleFunc("GET "+wire.PathReadyz, s.handleReadyz)
	mux.HandleFunc("GET "+wire.PathSearch, s.withResilience(s.handleSearch))
	mux.HandleFunc("GET "+wire.PathStats, s.handleStats)
	mux.HandleFunc("GET "+wire.PathConfig, s.handleConfig)
	mux.HandleFunc("GET "+wire.PathModel, s.handleModel)
	mux.HandleFunc("POST "+wire.PathBudget, s.handleBudget)
	return mux
}

// Loop exposes the match-loop controller, for operational tooling and
// tests.
func (s *Server) Loop() *core.Loop { return s.loop }

// Registry returns the match loop as a persist.Snapshotter: it is Loop
// under the name bench/serve.go calls to save and restore the loop.
func (s *Server) Registry() persist.Snapshotter { return s.loop }

// Engine exposes the search engine, for tests.
func (s *Server) Engine() *search.Engine { return s.engine }

// Boot reports what New's stages cost; /stats carries the same object.
func (s *Server) Boot() wire.Boot { return s.boot }

// Ops exposes the operational counters, for tooling and tests.
func (s *Server) Ops() *metrics.OpsCounters { return &s.ops }

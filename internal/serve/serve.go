// Package serve exposes the Green-approximated search back-end as an
// HTTP service — the deployment shape the paper motivates ("cloud-based
// companies provide web services with Service Level Agreements").
//
// Endpoints:
//
//	GET /search?q=<words>   ranked results as JSON; the per-query
//	                        matching-document loop runs under the Green
//	                        loop controller, one scan per request in
//	                        blocks — a monitored request's QoS is read
//	                        off that same scan, not off reruns
//	GET /stats              runtime counters: queries, monitored queries,
//	                        mean monitored QoS loss, current M, documents
//	                        scored vs the precise engine, and the
//	                        resilience state (breaker, shedding, snapshots)
//	GET /config             the active SLA and model parameters
//	GET /healthz            liveness probe: the process is up
//	GET /readyz             readiness probe: the service is serving at
//	                        full quality (503 while degraded: breaker
//	                        open or shedding)
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"green/internal/chaos"
	"green/internal/core"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/persist"
	"green/internal/search"
	"green/internal/workload"
)

const (
	// snapshotName names the disjunctive match-loop controller.
	snapshotName = "serve.match"
	// andLoopName names the optional conjunctive-scan controller.
	andLoopName = "serve.and"
	// stateName keys the bundled registry snapshot (all registered
	// controllers in one file) in the state store.
	stateName = "serve.controllers"
)

// Config configures the service.
type Config struct {
	// SLA is the fraction of queries allowed to return a different
	// top-N result page (default 0.02).
	SLA float64
	// TopN is the result-page size (default 10).
	TopN int
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
	// ApproxAnd installs a second approximation site: the conjunctive
	// (mode=and) scan runs under its own loop controller, calibrated
	// against the precise conjunctive results. Off by default —
	// conjunctive match sets are usually short enough to serve precisely.
	ApproxAnd bool
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
	// (default 5s).
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
	if c.TopN == 0 {
		c.TopN = 10
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

// Server is the Green-approximated search service. Every approximation
// site it hosts is a controller registered in reg; the persistence,
// stats, and readiness surfaces enumerate the registry rather than
// hard-wiring any single controller.
type Server struct {
	cfg    Config
	engine *search.Engine
	reg    *core.Registry
	loop   *core.Loop // the disjunctive match loop (always registered)
	and    *core.Loop // the conjunctive loop; nil unless cfg.ApproxAnd

	queries    atomic.Int64
	docsScored atomic.Int64
	// Monitored executions run the full scan anyway, so they provide a
	// free estimator of the precise per-query work; the serving path
	// never pays for an extra full scan just to compute statistics.
	monitoredFullDocs atomic.Int64
	monitoredQueries  atomic.Int64

	// Resilience state.
	inFlight      atomic.Int64
	qcache        *queryCache
	ops           metrics.OpsCounters
	store         *persist.Store
	modelSig      string
	restoreNote   string // "disabled" | "cold" | "restored" | "rejected: …"
	restoreReport core.RestoreReport

	// Fleet control-plane surface: the calibrated models back /model
	// (per-level candidate settings for the coordinator's combination
	// search) and loops backs /budget (pushed per-shard levels).
	models map[string]*model.LoopModel
	loops  map[string]*core.Loop
}

// New builds the corpus, runs the calibration phase, constructs the
// operational loop controller, and — when a state directory is
// configured — restores the most recent valid controller snapshot.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.SLA < 0 || c.SLA >= 1 {
		return nil, errors.New("serve: SLA must be in [0, 1)")
	}
	engine, err := search.NewEngine(search.Config{
		Seed: c.Seed, Docs: c.CorpusDocs,
		ShardIndex: c.ShardIndex, ShardCount: c.ShardCount,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: c, engine: engine, reg: core.NewRegistry(), restoreNote: "disabled",
		qcache: newQueryCache(c.QueryCacheSize),
		models: make(map[string]*model.LoopModel),
		loops:  make(map[string]*core.Loop),
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
	m, sel, err := s.calibrateLoop(snapshotName, knots, calQueries, feat, s.knotLosses(knots, false))
	if err != nil {
		return nil, err
	}
	s.loop, err = s.newServeLoop(snapshotName, m)
	if err != nil {
		return nil, err
	}
	if sel != nil {
		// Install before any restore so a selector-bearing snapshot can
		// rehydrate the bucket correction factors.
		s.loop.InstallSelector(sel)
	}
	if err := s.reg.Register(s.loop); err != nil {
		return nil, err
	}
	s.models[snapshotName], s.loops[snapshotName] = m, s.loop

	// The signature binds snapshots to the exact calibration and serving
	// configuration: a different corpus seed, size, SLA, page size,
	// shard partition, or site layout invalidates the persisted levels.
	sigParts := []any{m, c.SLA, c.Seed, engine.Docs(), c.TopN, c.ShardIndex, c.ShardCount}

	if c.ApproxAnd {
		// Conjunctive match streams are much shorter than disjunctive
		// ones, so the candidate levels sit correspondingly lower.
		andKnots := []float64{5, 10, 25, 50, 100, 250}
		mAnd, _, err := s.calibrateLoop(andLoopName, andKnots, calQueries, nil, s.knotLosses(andKnots, true))
		if err != nil {
			return nil, err
		}
		s.and, err = s.newServeLoop(andLoopName, mAnd)
		if err != nil {
			return nil, err
		}
		if err := s.reg.Register(s.and); err != nil {
			return nil, err
		}
		s.models[andLoopName], s.loops[andLoopName] = mAnd, s.and
		sigParts = append(sigParts, mAnd, "and")
	}

	if c.StateDir != "" {
		if err := s.openStateAndRestore(sigParts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// knotLosses returns calibrateLoop's measure function for one scan
// shape (and selects the conjunctive one): the loss and work of stopping
// a query's scan at each of the ascending knots, read off one pass of
// the block kernel — the page is snapshotted as the scan crosses each
// knot, the scan runs on to exhaustion, and every snapshot is judged
// against that final, precise page. That is one scan per training query
// where capping a fresh search at every knot is one per knot plus the
// precise one, and the pages are the same pages (Scan ≡ Search at equal
// document counts).
func (s *Server) knotLosses(knots []float64, and bool) func(q search.Query, losses, work []float64) {
	var (
		scanOr  search.Scan
		scanAnd search.ScanAnd
		pages   = make([][]int, len(knots))
		precise []int
	)
	return func(q search.Query, losses, work []float64) {
		var scan docScanner
		if and {
			scanAnd.Reset(s.engine, q, s.cfg.TopN)
			scan = &scanAnd
		} else {
			scanOr.Reset(s.engine, q, s.cfg.TopN)
			scan = &scanOr
		}
		for i, k := range knots {
			scan.StepN(int(k) - scan.Processed())
			pages[i] = scan.TopNInto(pages[i])
			work[i] = float64(scan.Processed())
		}
		for scan.StepN(scanBlock) == scanBlock {
		}
		precise = scan.TopNInto(precise)
		for i := range knots {
			losses[i] = metrics.QueryLoss(precise, pages[i])
		}
	}
}

// calibrateLoop runs the calibration phase for one scan shape: measure
// fills in, for each training query, the loss and work of capping the
// scan at each candidate level against the uncapped (precise) result. A
// non-nil feat function additionally tags every run with its query's
// feature vector (bucket edges derived from the training distribution's
// quartiles) and builds the per-input selector beside the reactive
// model; a degenerate feature distribution silently yields no selector
// (reactive-only).
func (s *Server) calibrateLoop(name string, knots []float64, calQueries []search.Query, feat func(search.Query) core.Features, measure func(q search.Query, losses, work []float64)) (*model.LoopModel, *core.LoopSelector, error) {
	baseLevel := float64(s.engine.Docs())
	cal, err := core.NewLoopCalibration(name, knots, baseLevel, baseLevel)
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

// newServeLoop constructs one serving loop controller with the
// service-wide SLA, monitoring cadence, and breaker tuning.
func (s *Server) newServeLoop(name string, m *model.LoopModel) (*core.Loop, error) {
	return core.NewLoop(core.LoopConfig{
		Name: name, Model: m, SLA: s.cfg.SLA,
		SampleInterval: s.cfg.SampleInterval,
		Policy: &core.WindowedPolicy{
			Window: 100, BaseInterval: s.cfg.SampleInterval,
		},
		Disabled:         s.cfg.Disabled,
		BreakerThreshold: s.cfg.BreakerThreshold,
		BreakerCooldown:  s.cfg.BreakerCooldown,
	})
}

// openStateAndRestore opens the state store and applies the persisted
// registry bundle if one exists and survives validation. Restore
// failures are *recorded*, never fatal: a service must come up (cold)
// from any on-disk state, including a corrupted or foreign snapshot —
// and a bundle with one poisoned entry still restores every other
// controller.
func (s *Server) openStateAndRestore(sigParts []any) error {
	store, err := persist.Open(s.cfg.StateDir)
	if err != nil {
		return err
	}
	sig, err := persist.Signature(sigParts...)
	if err != nil {
		return err
	}
	s.store, s.modelSig = store, sig
	s.restoreReport = make(core.RestoreReport)
	switch data, err := store.Load(stateName, sig); {
	case err == nil:
		rep, rerr := s.reg.RestoreAllJSON(data)
		if rerr != nil {
			// The bundle itself is unusable (decode/version failure).
			s.ops.RestoreRejected.Add(1)
			s.restoreNote = "rejected: " + rerr.Error()
			s.noteAllControllers(s.restoreNote)
			return nil
		}
		s.restoreReport = rep
		s.restoreNote = summarizeRestore(rep)
		if rep.Rejected() {
			s.ops.RestoreRejected.Add(1)
		}
	case errors.Is(err, fs.ErrNotExist):
		s.restoreNote = "cold"
		s.noteAllControllers("cold")
	default:
		// Corrupt, torn, foreign, or wrong-version snapshot: start cold.
		s.ops.RestoreRejected.Add(1)
		s.restoreNote = "rejected: " + err.Error()
		s.noteAllControllers(s.restoreNote)
	}
	return nil
}

// noteAllControllers records one outcome for every registered controller
// (the whole-bundle cases, where no per-controller restore ran).
func (s *Server) noteAllControllers(note string) {
	for _, name := range s.reg.Names() {
		s.restoreReport[name] = note
	}
}

// summarizeRestore folds a per-controller restore report into the
// service-level note: any rejection surfaces first (with its
// controller), else one restored controller makes the boot "restored",
// else everything came up cold.
func summarizeRestore(rep core.RestoreReport) string {
	restored := false
	for _, name := range sortedNames(rep) {
		note := rep[name]
		if strings.HasPrefix(note, "rejected:") {
			return "rejected: " + name + ": " + strings.TrimSpace(strings.TrimPrefix(note, "rejected:"))
		}
		if note == "restored" {
			restored = true
		}
	}
	if restored {
		return "restored"
	}
	return "cold"
}

func sortedNames(rep core.RestoreReport) []string {
	names := make([]string, 0, len(rep))
	for name := range rep {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RestoreNote reports what happened to the persisted state at startup.
func (s *Server) RestoreNote() string { return s.restoreNote }

// RestoreReport reports the per-controller restore outcomes at startup
// (nil when persistence is disabled).
func (s *Server) RestoreReport() core.RestoreReport { return s.restoreReport }

// SaveState writes one crash-safe snapshot of every registered
// controller's state now. A no-op without a state directory.
func (s *Server) SaveState() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.SaveFrom(stateName, s.modelSig, s.reg); err != nil {
		s.ops.SnapshotErrors.Add(1)
		return err
	}
	s.ops.SnapshotSaves.Add(1)
	return nil
}

// StartSnapshotLoop launches the periodic background snapshot writer
// and returns a stop function (idempotent). Stopping does not write a
// final snapshot; call SaveState at shutdown for that.
func (s *Server) StartSnapshotLoop() (stop func()) {
	if s.store == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(s.cfg.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = s.SaveState() // failures are counted in ops
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// termsOf maps query words onto the synthetic vocabulary by hashing —
// the stand-in for a tokenizer + dictionary over a real index. Words hash
// into the *popular* post-stopword band of the Zipf vocabulary: real
// query traffic overwhelmingly hits common terms, and that is the
// distribution the engine was calibrated for.
func (s *Server) termsOf(q string) []int {
	fields := strings.Fields(strings.ToLower(q))
	terms := make([]int, 0, len(fields))
	band := s.engine.Vocab() / 10
	if band < 1 {
		band = 1
	}
	for _, f := range fields {
		h := fnv.New32a()
		h.Write([]byte(f))
		t := s.engine.StopTerms() + int(h.Sum32()%uint32(band))
		if t >= s.engine.Vocab() {
			t = s.engine.Vocab() - 1
		}
		dup := false
		for _, u := range terms {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	return terms
}

// searchResponse is the /search JSON shape.
type searchResponse struct {
	Query string `json:"query"`
	Docs  []int  `json:"docs"`
	// Scores carries the exact per-doc scores of Docs, emitted only when
	// the request asks (scores=1): a coordinator merging shard partials
	// ranks on exact scores so the merged page is byte-identical to the
	// unsharded engine's.
	Scores        []float64 `json:"scores,omitempty"`
	DocsScored    int       `json:"docs_scored"`
	Approximated  bool      `json:"approximated"`
	MonitoredScan bool      `json:"monitored"`
	// Degraded marks a response whose scan was cut short at the request
	// deadline: the results are the best scored so far, not the
	// controller's chosen approximation level.
	Degraded bool `json:"degraded,omitempty"`
}

// statsResponse is the /stats JSON shape.
type statsResponse struct {
	Queries           int64   `json:"queries"`
	Monitored         int64   `json:"monitored"`
	MeanMonitoredLoss float64 `json:"mean_monitored_loss"`
	CurrentM          float64 `json:"current_m"`
	DocsScored        int64   `json:"docs_scored"`
	DocsPrecise       int64   `json:"docs_precise_equivalent"`
	WorkSavedFraction float64 `json:"work_saved_fraction"`

	// Resilience surface. The flat breaker fields describe the match
	// loop (backward compatible); Controllers carries one row per
	// registered controller.
	Degraded        bool                      `json:"degraded"`
	DegradedReasons []string                  `json:"degraded_reasons,omitempty"`
	BreakerState    string                    `json:"breaker_state"`
	BreakerTrips    int64                     `json:"breaker_trips"`
	ContainedPanics int64                     `json:"contained_panics"`
	InFlight        int64                     `json:"in_flight"`
	Restore         string                    `json:"restore"`
	RestoreDetail   map[string]string         `json:"restore_controllers,omitempty"`
	Controllers     []metrics.ControllerStats `json:"controllers"`
	Ops             metrics.OpsSnapshot       `json:"ops"`
}

// configResponse is the /config JSON shape.
type configResponse struct {
	SLA            float64  `json:"sla"`
	TopN           int      `json:"top_n"`
	SampleInterval int      `json:"sample_interval"`
	CorpusDocs     int      `json:"corpus_docs"`
	InitialM       float64  `json:"initial_m"`
	MaxInFlight    int      `json:"max_in_flight"`
	RequestTimeout string   `json:"request_timeout"`
	StateDir       string   `json:"state_dir,omitempty"`
	Controllers    []string `json:"controllers"`
}

// readyzResponse is the /readyz JSON shape.
type readyzResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and the mux is serving. A
		// degraded service is still alive — restarting it would not help
		// — so /healthz stays 200 while /readyz goes 503.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /search", s.withResilience(s.handleSearch))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /config", s.handleConfig)
	mux.HandleFunc("GET /model", s.handleModel)
	mux.HandleFunc("POST /budget", s.handleBudget)
	return mux
}

// modelResponse is the /model JSON shape: per-controller candidate
// settings derived from the calibrated model, the raw material for the
// coordinator's CombineSearchOpt decomposition of the fleet SLA into
// per-shard budgets.
type modelResponse struct {
	Controllers []modelControllerRow `json:"controllers"`
}

type modelControllerRow struct {
	Name      string       `json:"name"`
	BaseLevel float64      `json:"base_level"`
	Levels    []modelLevel `json:"levels"`
}

type modelLevel struct {
	Level    float64 `json:"level"`
	PredLoss float64 `json:"pred_loss"`
	Speedup  float64 `json:"speedup"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	resp := modelResponse{}
	for _, name := range s.reg.Names() {
		m := s.models[name]
		if m == nil {
			continue
		}
		row := modelControllerRow{Name: name, BaseLevel: float64(s.engine.Docs())}
		for _, lvl := range m.Levels() {
			row.Levels = append(row.Levels, modelLevel{
				Level:    lvl,
				PredLoss: m.PredictLoss(lvl),
				Speedup:  m.Speedup(lvl),
			})
		}
		resp.Controllers = append(resp.Controllers, row)
	}
	writeJSON(w, resp)
}

// budgetRequest is the POST /budget JSON shape: the fleet control plane
// pushing one controller's approximation level (the paper's M). The
// handler is idempotent — pushing the same budget twice leaves the same
// state — so coordinator retries are safe.
type budgetRequest struct {
	Controller string  `json:"controller"`
	Level      float64 `json:"level"`
}

type budgetResponse struct {
	Controller string  `json:"controller"`
	Level      float64 `json:"level"`
	Applied    bool    `json:"applied"`
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	var req budgetRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "bad budget body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Controller == "" {
		req.Controller = snapshotName
	}
	loop := s.loops[req.Controller]
	if loop == nil {
		http.Error(w, "unknown controller "+req.Controller, http.StatusNotFound)
		return
	}
	if !(req.Level > 0) || math.IsInf(req.Level, 0) {
		http.Error(w, "level must be a positive finite number", http.StatusBadRequest)
		return
	}
	loop.SetLevel(req.Level)
	s.ops.BudgetPushes.Add(1)
	writeJSON(w, budgetResponse{Controller: req.Controller, Level: loop.Level(), Applied: true})
}

// withResilience wraps a handler with the in-flight cap (shed with 503
// + Retry-After instead of queuing unboundedly). The per-request
// deadline is NOT a context here: context.WithTimeout allocates a
// timer and a context per request, so the serving path instead carries
// an explicit deadline time (see serveQuery), which costs one time.Now
// read at entry and nothing on the allocator.
func (s *Server) withResilience(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.MaxInFlight > 0 {
			if s.inFlight.Add(1) > int64(s.cfg.MaxInFlight) {
				s.inFlight.Add(-1)
				s.ops.Shed.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "overloaded: request shed", http.StatusServiceUnavailable)
				return
			}
			defer s.inFlight.Add(-1)
		}
		h(w, r)
	}
}

// requestDeadline computes the explicit deadline for one request; the
// zero time means no deadline.
func (s *Server) requestDeadline() time.Time {
	if s.cfg.RequestTimeout > 0 {
		return time.Now().Add(s.cfg.RequestTimeout)
	}
	return time.Time{}
}

// degradedReasons reports why the service is not at full quality (empty
// when it is). Every registered controller contributes its breaker
// state, so a server hosting several approximation sites reports which
// one is degraded.
func (s *Server) degradedReasons() []string {
	var reasons []string
	for _, c := range s.reg.Controllers() {
		if b := c.Breaker(); b.State != core.BreakerClosed {
			reasons = append(reasons, "breaker-"+b.State.String()+"("+c.Name()+")")
		}
	}
	if s.cfg.MaxInFlight > 0 && s.inFlight.Load() >= int64(s.cfg.MaxInFlight) {
		reasons = append(reasons, "shedding")
	}
	return reasons
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reasons := s.degradedReasons()
	resp := readyzResponse{Ready: len(reasons) == 0, Reasons: reasons}
	if !resp.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// docScanner is the incremental scan surface serveQuery drives and
// serveQoS reads its pages from — both the disjunctive Scan and the
// conjunctive ScanAnd satisfy it.
type docScanner interface {
	StepN(k int) int
	Processed() int
	Exhausted() bool
	TopNInto([]int) []int
	TopNResultsInto([]search.Result) []search.Result
}

// scanBlock is the most documents one ContinueN/StepN round scores: the
// stop law and the deadline are consulted once per block, the kernel
// runs the block as one tight loop. At the kernel's 2–10 ns a document
// that is a deadline check every ~0.5–2.5 µs of scanning, and the
// per-block ContinueN + ctx.Err() + time.Now() stays a few percent of
// the block it guards.
const scanBlock = 256

// serveScratch is the pooled per-request working set of the /search
// path: the scanners, the response struct with its docs slice, and the
// JSON encode buffer. One pool Get serves the whole request; nothing
// on the warm path touches the allocator (gated by
// TestServeWarmPathZeroAlloc and check.sh).
type serveScratch struct {
	scan    search.Scan
	scanAnd search.ScanAnd
	resp    searchResponse
	buf     []byte
	// wantScores asks serveQuery for the score-bearing page; results and
	// scores are its reusable buffers (resp.Scores is nil on the plain
	// path, so the backing array is retained here).
	wantScores bool
	results    []search.Result
	scores     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

func (sc *serveScratch) release() {
	sc.resp.Query = "" // drop the cached-echo reference
	scratchPool.Put(sc)
}

// serveQuery runs one query's scan under the given loop controller into
// sc.resp, honoring the client context (cancellation) and the explicit
// deadline: if either expires mid-scan the partial results scored so
// far are returned, marked degraded. The request runs one scan, in
// blocks: the controller grants up to scanBlock iterations at a time
// (ContinueN, exactly as many true Continue calls), the kernel scores
// them in one StepN, and a monitored request's QoS is read off that
// same scan (serveQoS). and selects the conjunctive retrieval for the
// QoS adapter's fallback reruns, which must execute the same retrieval
// semantics as the scan being judged.
func (s *Server) serveQuery(ctx context.Context, deadline time.Time, loop *core.Loop, scan docScanner, q search.Query, feat core.Features, and bool, sc *serveScratch) error {
	qos := serveQoSPool.Get().(*serveQoS)
	qos.engine, qos.query, qos.topN = s.engine, q, s.cfg.TopN
	qos.chaos = s.cfg.Chaos
	qos.and = and
	qos.scan = scan
	exec, err := loop.ExecFeat(qos, feat)
	if err != nil {
		qos.release()
		return err
	}
	expired := func() bool {
		return ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline))
	}
	i := 0
	// An already-expired deadline still serves (an empty page beats an
	// error); mid-scan, the deadline is checked once per block.
	degraded := expired()
	if !degraded {
		for k := exec.ContinueN(i, scanBlock); k > 0; k = exec.ContinueN(i, scanBlock) {
			n := scan.StepN(k)
			i += n
			if n < k {
				break // out of matching documents
			}
			if expired() {
				degraded = true
				break
			}
		}
	}
	// Finish is the controller's last use of qos (Loss runs inside it),
	// so the adapter can be recycled right after.
	res := exec.Finish(i)
	qos.release()
	if degraded {
		s.ops.DeadlinePartial.Add(1)
		s.ops.Degraded.Add(1)
	}
	s.queries.Add(1)
	s.docsScored.Add(int64(scan.Processed()))
	if res.Monitored && !res.ContainedPanic && !degraded {
		s.monitoredFullDocs.Add(int64(scan.Processed()))
		s.monitoredQueries.Add(1)
	}
	sc.resp = searchResponse{
		Docs:          sc.resp.Docs,
		Scores:        nil,
		DocsScored:    scan.Processed(),
		Approximated:  res.Approximated,
		MonitoredScan: res.Monitored,
		Degraded:      degraded,
	}
	if sc.wantScores {
		// The coordinator's merge needs exact scores; split the ranked
		// (doc, score) page into the two parallel response arrays.
		sc.results = scan.TopNResultsInto(sc.results[:0])
		docs := sc.resp.Docs[:0]
		scores := sc.scores[:0]
		for _, r := range sc.results {
			docs = append(docs, int(r.Doc))
			scores = append(scores, r.Score)
		}
		sc.resp.Docs, sc.resp.Scores, sc.scores = docs, scores, scores
	} else {
		sc.resp.Docs = scan.TopNInto(sc.resp.Docs)
	}
	return nil
}

// parsedQuery resolves the raw q parameter value through the
// preparsed-query cache; a miss unescapes, tokenizes, computes the
// query's Select-stage features, and populates the cache. A nil return
// means the query was empty or unparseable (the caller 400s). cached
// reports whether the parse was served from the cache (the hit state
// feeds the feature vector's Aux2).
func (s *Server) parsedQuery(rawQ string) (cq *cachedQuery, cached bool) {
	if cq := s.qcache.get(rawQ); cq != nil {
		s.ops.QueryCacheHits.Add(1)
		return cq, true
	}
	s.ops.QueryCacheMisses.Add(1)
	qstr, err := url.QueryUnescape(rawQ)
	if err != nil || strings.TrimSpace(qstr) == "" {
		return nil, false
	}
	terms := s.termsOf(qstr)
	cq = &cachedQuery{echo: qstr, terms: terms, feat: s.queryFeat(terms)}
	s.qcache.put(rawQ, cq)
	return cq, false
}

// handleSearch serves one query. The handler is side-effect-free per
// request by design — retries and hedged duplicates from a coordinator
// are safe: serving the same query twice touches no state beyond
// monotonic counters (queries/docs-scored/ops) and the controller's
// monitored-sampling stream, and returns the same ranked page both
// times (TestSearchHandlerIdempotent). Keep it that way: any per-query
// mutation added here must be idempotent or moved off this path.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	rawQ, ok := rawParam(r.URL.RawQuery, "q")
	if !ok || rawQ == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	cq, cached := s.parsedQuery(rawQ)
	if cq == nil {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	q := search.Query{Terms: cq.terms}
	feat := cq.feat
	if cached {
		feat.Aux2 = 1
	}
	mode, _ := rawParam(r.URL.RawQuery, "mode")
	scoresParam, _ := rawParam(r.URL.RawQuery, "scores")
	wantScores := scoresParam == "1"
	switch mode {
	case "", "or":
		sc := scratchPool.Get().(*serveScratch)
		sc.wantScores = wantScores
		sc.scan.Reset(s.engine, q, s.cfg.TopN)
		if err := s.serveQuery(r.Context(), s.requestDeadline(), s.loop, &sc.scan, q, feat, false, sc); err != nil {
			sc.release()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sc.resp.Query = cq.echo
		writeSearchJSON(w, sc)
		sc.release()
	case "and":
		if s.and != nil {
			// The conjunctive scan is its own registered approximation
			// site, with its own calibrated model and controller.
			sc := scratchPool.Get().(*serveScratch)
			sc.wantScores = wantScores
			sc.scanAnd.Reset(s.engine, q, s.cfg.TopN)
			if err := s.serveQuery(r.Context(), s.requestDeadline(), s.and, &sc.scanAnd, q, feat, true, sc); err != nil {
				sc.release()
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			sc.resp.Query = cq.echo
			writeSearchJSON(w, sc)
			sc.release()
			return
		}
		// Without ApproxAnd, strict conjunctive queries bypass
		// approximation: conjunctive match sets are short enough to serve
		// precisely.
		docs, n := s.engine.SearchAnd(q, s.cfg.TopN, 0)
		s.queries.Add(1)
		s.docsScored.Add(int64(n))
		writeJSON(w, &searchResponse{Query: cq.echo, Docs: docs, DocsScored: n})
	default:
		http.Error(w, "mode must be 'or' or 'and'", http.StatusBadRequest)
	}
}

// jsonContentType is the shared Content-Type value, stored directly
// into the header map: Header().Set allocates a fresh one-element
// slice per call.
var jsonContentType = []string{"application/json"}

// writeSearchJSON encodes sc.resp through the scratch buffer and the
// hand-rolled encoder (jsonfast.go) — the alloc-free analogue of
// writeJSON for the /search shape.
func writeSearchJSON(w http.ResponseWriter, sc *serveScratch) {
	sc.buf = appendSearchJSON(sc.buf[:0], &sc.resp)
	h := w.Header()
	if len(h["Content-Type"]) == 0 {
		h["Content-Type"] = jsonContentType
	}
	_, _ = w.Write(sc.buf)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	execs, monitored, meanLoss := s.loop.Stats()
	scored := s.docsScored.Load()
	// Estimate the precise-equivalent work from the monitored full
	// scans: mean full-scan size times queries served.
	var precise int64
	if mq := s.monitoredQueries.Load(); mq > 0 {
		precise = s.monitoredFullDocs.Load() / mq * s.queries.Load()
	}
	saved := 0.0
	if precise > 0 {
		saved = 1 - float64(scored)/float64(precise)
		if saved < 0 {
			saved = 0
		}
	}
	reasons := s.degradedReasons()
	brk := s.loop.Breaker()
	writeJSON(w, statsResponse{
		Queries:           execs,
		Monitored:         monitored,
		MeanMonitoredLoss: meanLoss,
		CurrentM:          s.loop.Level(),
		DocsScored:        scored,
		DocsPrecise:       precise,
		WorkSavedFraction: saved,
		Degraded:          len(reasons) > 0,
		DegradedReasons:   reasons,
		BreakerState:      brk.State.String(),
		BreakerTrips:      brk.Trips,
		ContainedPanics:   brk.ContainedPanics,
		InFlight:          s.inFlight.Load(),
		Restore:           s.restoreNote,
		RestoreDetail:     s.restoreReport,
		Controllers:       metrics.CollectControllers(s.reg),
		Ops:               s.ops.Snapshot(),
	})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, configResponse{
		SLA:            s.cfg.SLA,
		TopN:           s.cfg.TopN,
		SampleInterval: s.cfg.SampleInterval,
		CorpusDocs:     s.engine.Docs(),
		InitialM:       s.loop.Level(),
		MaxInFlight:    s.cfg.MaxInFlight,
		RequestTimeout: s.cfg.RequestTimeout.String(),
		StateDir:       s.cfg.StateDir,
		Controllers:    s.reg.Names(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Loop exposes the match-loop controller, for operational tooling and
// tests.
func (s *Server) Loop() *core.Loop { return s.loop }

// AndLoop exposes the conjunctive-scan controller (nil unless
// Config.ApproxAnd).
func (s *Server) AndLoop() *core.Loop { return s.and }

// Registry exposes the controller registry, for operational tooling and
// tests.
func (s *Server) Registry() *core.Registry { return s.reg }

// Engine exposes the search engine, for tests.
func (s *Server) Engine() *search.Engine { return s.engine }

// Ops exposes the operational counters, for tooling and tests.
func (s *Server) Ops() *metrics.OpsCounters { return &s.ops }

// serveQoS adapts a served query to core.LoopQoS by snapshot-and-
// continue, the paper's monitored run: "store the QoS value and do not
// terminate the loop early". Record copies the request's own scan page
// at the iteration the approximation would have stopped; the scan then
// runs on to exhaustion, and Loss compares that snapshot with the
// scan's final page — the precise answer, which the request is serving
// anyway. A monitored request therefore costs one full scan. Rerunning
// the query on the engine is the fallback only: Record reruns the capped
// search when the scan is not at the recorded iteration, Loss reruns
// the precise search when the scan did not reach exhaustion (deadline,
// cancellation), so a loss is never measured against a partial page.
//
// Adapters are pooled and keep their two page buffers across requests,
// so the monitored path allocates nothing either. The chaos injector
// hooks live here: the QoS callbacks are exactly the user-code surface
// the controller's panic containment guards, so this is where the
// fault-injection harness aims.
type serveQoS struct {
	engine *search.Engine
	query  search.Query
	topN   int
	scan   docScanner // the request's own scan
	chaos  *chaos.Injector
	// and selects the conjunctive retrieval for the fallback reruns,
	// matching the scan being judged.
	and bool
	// recorded is the page at the record point, precise the buffer for
	// the final one; both backing arrays survive release.
	recorded []int
	precise  []int
}

var serveQoSPool = sync.Pool{New: func() any { return new(serveQoS) }}

func (q *serveQoS) release() {
	*q = serveQoS{recorded: q.recorded[:0], precise: q.precise[:0]}
	serveQoSPool.Put(q)
}

// search reruns the query on the engine from scratch (maxDocs <= 0:
// uncapped), the fallback for a page the scan cannot supply.
func (q *serveQoS) search(maxDocs int) []int {
	if q.and {
		docs, _ := q.engine.SearchAnd(q.query, q.topN, maxDocs)
		return docs
	}
	docs, _ := q.engine.Search(q.query, q.topN, maxDocs)
	return docs
}

func (q *serveQoS) Record(iter int) {
	q.chaos.MaybeDelay("qos.record")
	q.chaos.MaybePanic("qos.record")
	// iter > 0: a cap of zero means "no cap" to the engine, and the
	// rerun keeps that meaning.
	if iter > 0 && q.scan.Processed() == iter {
		q.recorded = q.scan.TopNInto(q.recorded)
		return
	}
	q.recorded = q.search(iter)
}

func (q *serveQoS) Loss(int) float64 {
	q.chaos.MaybeDelay("qos.loss")
	q.chaos.MaybePanic("qos.loss")
	if !q.scan.Exhausted() {
		return metrics.QueryLoss(q.search(0), q.recorded)
	}
	q.precise = q.scan.TopNInto(q.precise)
	return metrics.QueryLoss(q.precise, q.recorded)
}

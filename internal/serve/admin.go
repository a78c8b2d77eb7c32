package serve

import (
	"errors"
	"io/fs"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"green/internal/core"
	"green/internal/metrics"
	"green/internal/persist"
	"green/internal/search"
	"green/internal/wire"
)

// sampleRing is how many monitored requests' queries /stats estimates
// the precise per-query work from: at most that many match counts per
// call, each memoised on its cached query, keep a poll of a 200k-document
// server under a millisecond.
const sampleRing = 16

// preciseDocs estimates the precise-equivalent work — the documents the
// served queries would have scored unapproximated — as the mean match
// count of the queries in the monitored ring times the queries served.
func (s *Server) preciseDocs() int64 {
	var sum, n int64
	for i := range s.sampled {
		m := s.sampled[i].Load()
		if m == nil {
			continue
		}
		c := m.n.Load()
		if c == 0 { // first met: count it
			c = 1 + int64(s.engine.MatchCount(search.Query{Terms: m.terms}))
			m.n.Store(c)
		}
		sum, n = sum+c-1, n+1
	}
	if n == 0 {
		return 0
	}
	return sum * s.queries.Load() / n
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	execs, monitored, meanLoss := s.loop.Stats()
	scored := s.docsScored.Load()
	precise := s.preciseDocs()
	saved := 0.0
	if precise > scored { // scoring more than the estimate saved nothing
		saved = 1 - float64(scored)/float64(precise)
	}
	reasons := s.degradedReasons()
	brk := s.loop.Breaker()
	wire.WriteJSON(w, wire.Stats{
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
		Boot:              s.boot,
	})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, wire.Config{
		SLA:            s.cfg.SLA,
		TopN:           wire.PageSize,
		SampleInterval: s.cfg.SampleInterval,
		CorpusDocs:     s.engine.Docs(),
		InitialM:       s.loop.Level(),
		MaxInFlight:    s.cfg.MaxInFlight,
		RequestTimeout: s.cfg.RequestTimeout.String(),
		StateDir:       s.cfg.StateDir,
		Controllers:    s.reg.Names(),
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	row := wire.ModelController{Name: snapshotName, BaseLevel: float64(s.engine.Docs())}
	for _, lvl := range s.matchModel.Levels() {
		if lvl > row.BaseLevel {
			break // past the corpus a scan is precise: not a candidate
		}
		row.Levels = append(row.Levels, wire.ModelLevel{
			Level:    lvl,
			PredLoss: s.matchModel.PredictLoss(lvl),
			Speedup:  s.matchModel.Speedup(lvl),
		})
	}
	wire.WriteJSON(w, wire.Model{Controllers: []wire.ModelController{row}})
}

// handleBudget applies a pushed level. It is idempotent — pushing the
// same budget twice leaves the same state — so coordinator retries are
// safe.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeBudget(r.Body)
	if err != nil {
		http.Error(w, "bad budget body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Controller == "" {
		req.Controller = snapshotName
	}
	c, _ := s.reg.Get(req.Controller)
	loop, _ := c.(*core.Loop) // every controller this server registers is one
	if loop == nil {
		http.Error(w, "unknown controller "+req.Controller, http.StatusNotFound)
		return
	}
	if !req.LevelOK() {
		http.Error(w, "level must be a positive finite number", http.StatusBadRequest)
		return
	}
	loop.SetLevel(req.Level)
	s.ops.BudgetPushes.Add(1)
	wire.WriteJSON(w, wire.BudgetAck{Controller: req.Controller, Level: loop.Level(), Applied: true})
}

// degradedReasons reports why the service is not at full quality (empty
// when it is). Every registered controller contributes its breaker
// state, under its name.
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
	wire.WriteReadyz(w, s.degradedReasons())
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

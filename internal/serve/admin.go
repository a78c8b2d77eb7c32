package serve

import (
	"errors"
	"io/fs"
	"net/http"
	"sync"
	"time"

	"green/internal/core"
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
	recalSeq, recalAct := s.loop.LastRecalibration()
	wire.WriteJSON(w, wire.Stats{
		Queries:           execs,
		Monitored:         monitored,
		MeanMonitoredLoss: meanLoss,
		CurrentM:          s.loop.Level(),
		DocsScored:        scored,
		DocsPrecise:       precise,
		WorkSavedFraction: saved,
		SampleInterval:    s.loop.SampleInterval(),
		LastRecalSeq:      recalSeq,
		LastRecalAction:   recalAct.String(),
		ApproxEnabled:     s.loop.ApproxEnabled(),
		Degraded:          len(reasons) > 0,
		DegradedReasons:   reasons,
		BreakerState:      brk.State.String(),
		BreakerTrips:      brk.Trips,
		ContainedPanics:   brk.ContainedPanics,
		InFlight:          s.inFlight.Load(),
		Restore:           s.restoreNote,
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
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	resp := wire.Model{BaseLevel: s.matchModel.BaseLevel}
	for _, lvl := range s.matchModel.Levels() {
		if lvl > resp.BaseLevel {
			break // past the corpus a scan is precise: not a candidate
		}
		resp.Levels = append(resp.Levels, wire.ModelLevel{
			Level:    lvl,
			PredLoss: s.matchModel.PredictLoss(lvl),
			Speedup:  s.matchModel.Speedup(lvl),
		})
	}
	wire.WriteJSON(w, resp)
}

// handleBudget applies a pushed match-loop level. It is idempotent —
// pushing the same budget twice leaves the same state — so coordinator
// retries are safe. A level above the model's base level is refused, as
// /model's Check refuses such a row and Loop.Restore such a snapshot.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeBudget(r.Body)
	if err != nil {
		http.Error(w, "bad budget body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !req.LevelOK() || req.Level > s.matchModel.BaseLevel {
		http.Error(w, "level must be a positive finite number no higher than base_level", http.StatusBadRequest)
		return
	}
	s.loop.SetLevel(req.Level)
	s.ops.BudgetPushes.Add(1)
	wire.WriteJSON(w, wire.BudgetAck{Level: s.loop.Level(), Applied: true})
}

// degradedReasons reports why the service is not at full quality (empty
// when it is): the match loop's breaker state and shedding.
func (s *Server) degradedReasons() []string {
	var reasons []string
	if b := s.loop.Breaker(); b.State != core.BreakerClosed {
		reasons = append(reasons, "breaker-"+b.State.String()+"("+matchName+")")
	}
	if s.cfg.MaxInFlight > 0 && s.inFlight.Load() >= int64(s.cfg.MaxInFlight) {
		reasons = append(reasons, "shedding")
	}
	return reasons
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	wire.WriteReadyz(w, s.degradedReasons())
}

// openStateAndRestore opens the state store and restores the match
// loop's snapshot if one exists and survives validation. Restore failures
// are *recorded*, never fatal: a service must come up (cold) from any
// on-disk state, including a corrupted or foreign snapshot, and the loop
// refuses a document whole or applies it whole.
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
	switch err := store.LoadInto(stateName, sig, s.loop); {
	case err == nil:
		s.restoreNote = "restored"
	case errors.Is(err, fs.ErrNotExist):
		s.restoreNote = "cold"
	default:
		// Corrupt, torn, foreign, or refused by the loop: start cold.
		s.ops.RestoreRejected.Add(1)
		s.restoreNote = "rejected: " + err.Error()
	}
	return nil
}

// RestoreNote reports what happened to the persisted state at startup.
func (s *Server) RestoreNote() string { return s.restoreNote }

// SaveState writes one crash-safe snapshot of the match loop's state
// now. A no-op without a state directory.
func (s *Server) SaveState() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.SaveFrom(stateName, s.modelSig, s.loop); err != nil {
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

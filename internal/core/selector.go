package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"green/internal/model"
)

// The Select stage's one implementation, BucketSelector: per-feature-
// bucket loss curves fit during calibration, with Correct-stage drift
// repair.
//
// A selector partitions the feature domain (Features.Key) into buckets
// and keeps, per bucket, the calibrated mean loss at every candidate
// level. Select inverts the bucket's curve: the cheapest candidate whose
// corrected loss stays within the SLA. Correct compares each monitored
// observation against the bucket's loss at the chosen candidate and
// moves the bucket's multiplicative factor toward the observed/predicted
// ratio, clamped by model.CorrectionRatio as the cluster control plane
// clamps shard corrections, so one noisy window cannot swing a bucket's
// whole curve by orders of magnitude.
//
// The curves are immutable after build; only the factor vector mutates,
// copy-on-write under the selector's own lock, so Select stays lock-free
// and allocation-free on the hot path.

// selectorStateVersion versions the persisted selector section of a
// controller snapshot. Restore rejects other versions.
const selectorStateVersion = 1

// selCorrAlpha is the EWMA gain of the Correct stage: each monitored
// observation moves the bucket factor a quarter of the way toward the
// clamped observed/predicted ratio.
const selCorrAlpha = 0.25

// selObsFloor is the observed-loss magnitude below which an observation
// with no usable prediction counts as agreement at zero and is ignored;
// above it, loss was observed where none was predicted and the factor is
// pushed toward the upper clamp.
const selObsFloor = 1e-9

// SelectorState is the versioned persisted runtime state of a Selector:
// the per-bucket drift-correction factors. The curves are not persisted
// — they are rebuilt from calibration, exactly like the reactive model.
type SelectorState struct {
	Version int       `json:"version"`
	Kind    string    `json:"kind"`
	Factors []float64 `json:"factors"`
}

// validateSelectorState rejects version skew, kind mismatches, and
// NaN/Inf or mis-shaped factor vectors.
func validateSelectorState(s SelectorState, kind string, buckets int) error {
	if s.Version != selectorStateVersion {
		return fmt.Errorf("core: selector state version %d, want %d", s.Version, selectorStateVersion)
	}
	if s.Kind != kind {
		return fmt.Errorf("core: selector state kind %q, want %q", s.Kind, kind)
	}
	if len(s.Factors) != buckets {
		return fmt.Errorf("core: selector state has %d bucket factors, selector has %d buckets", len(s.Factors), buckets)
	}
	for i, f := range s.Factors {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("core: selector bucket %d factor %v is not finite", i, f)
		}
		if f < model.CorrLo || f > model.CorrHi {
			return fmt.Errorf("core: selector bucket %d factor %v outside clamp [%v,%v]", i, f, model.CorrLo, model.CorrHi)
		}
	}
	return nil
}

// validateBucketEdges checks a feature-bucket boundary vector: at least
// one bucket, strictly ascending, finite.
func validateBucketEdges(edges []float64) error {
	if len(edges) < 2 {
		return errors.New("core: feature buckets need at least two edges")
	}
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("core: feature bucket edge %d (%v) is not finite", i, e)
		}
		if i > 0 && e <= edges[i-1] {
			return fmt.Errorf("core: feature bucket edges must ascend strictly (edge %d: %v after %v)", i, e, edges[i-1])
		}
	}
	return nil
}

// bucketOf maps a feature key onto a bucket index under the edge
// vector, or -1 outside the calibrated domain. The final bucket is
// closed on the right so the domain maximum stays selectable.
func bucketOf(edges []float64, key float64) int {
	n := len(edges) - 1
	if key < edges[0] || key > edges[n] {
		return -1
	}
	if key == edges[n] {
		return n - 1
	}
	b := sort.SearchFloat64s(edges[1:], key)
	if key == edges[1:][b] {
		b++ // right-open buckets: a key on an interior edge opens the next bucket
	}
	return b
}

// BucketSelector is the Select stage: per feature bucket, the calibrated
// mean loss at every candidate level. A loop's candidates are its knots
// and its fallback the base level (LoopCalibration.BuildSelector); a
// ladder's candidates are its version indices and its fallback
// model.PreciseVersion (FuncCalibration.BuildFuncSelector).
type BucketSelector struct {
	kind     string      // SelectorState.Kind: "loop" or "func"
	edges    []float64   // bucket boundaries, ascending, len = buckets+1
	levels   []float64   // candidate levels, ascending
	fallback float64     // the level when no candidate meets the SLA
	loss     [][]float64 // [bucket][candidate]; nil for a bucket without a curve

	factors atomic.Pointer[[]float64]
	mu      sync.Mutex // serializes factor rebuilds (Correct, Restore)
}

// newBucketSelector wires a built selector with every factor at 1.
func newBucketSelector(kind string, edges, levels []float64, fallback float64, loss [][]float64) *BucketSelector {
	s := &BucketSelector{kind: kind, edges: append([]float64(nil), edges...), levels: levels, fallback: fallback, loss: loss}
	f := make([]float64, len(edges)-1)
	for i := range f {
		f[i] = 1
	}
	s.factors.Store(&f)
	return s
}

// Buckets returns the number of feature buckets.
func (s *BucketSelector) Buckets() int { return len(s.edges) - 1 }

// Edges returns a copy of the bucket boundary vector.
func (s *BucketSelector) Edges() []float64 { return append([]float64(nil), s.edges...) }

// Factors returns a copy of the live per-bucket correction factors.
func (s *BucketSelector) Factors() []float64 {
	return append([]float64(nil), (*s.factors.Load())...)
}

// bucket maps the input onto a calibrated bucket and its live factor; ok
// is false outside the feature domain and in buckets without a curve.
// Lock-free; no allocation.
func (s *BucketSelector) bucket(f Features) (b int, factor float64, ok bool) {
	b = bucketOf(s.edges, f.Key)
	if b < 0 || s.loss[b] == nil {
		return b, 0, false
	}
	return b, (*s.factors.Load())[b], true
}

// candidate returns the index of level among the candidates; ok is false
// for any other level, the fallback included.
func (s *BucketSelector) candidate(level float64) (i int, ok bool) {
	i = sort.SearchFloat64s(s.levels, level)
	return i, i < len(s.levels) && s.levels[i] == level
}

// Select implements Selector: the cheapest candidate whose corrected
// loss for the input's bucket stays within the SLA, or the fallback when
// none does. Declines invalid Features, inputs outside the calibrated
// domain and buckets without a curve. Lock-free; no allocation.
func (s *BucketSelector) Select(f Features, sla float64) (float64, bool) {
	if !f.Valid {
		return 0, false
	}
	b, fac, ok := s.bucket(f)
	if !ok {
		return 0, false
	}
	for i, loss := range s.loss[b] {
		if fac*loss <= sla {
			return s.levels[i], true
		}
	}
	return s.fallback, true
}

// PredictLoss returns the corrected loss the input's bucket predicts at a
// candidate level: 0 at any other level and outside the calibrated
// domain. For experiments and tests.
func (s *BucketSelector) PredictLoss(f Features, level float64) float64 {
	b, fac, ok := s.bucket(f)
	i, at := s.candidate(level)
	if !ok || !at {
		return 0
	}
	return fac * s.loss[b][i]
}

// Correct implements Selector: move the input bucket's correction factor
// toward the clamped ratio of the observed loss to the bucket's
// prediction at the chosen candidate. The fallback level carries no
// prediction and is skipped. Returns true when the factor moved.
func (s *BucketSelector) Correct(f Features, level, loss float64) bool {
	b, _, ok := s.bucket(f)
	i, at := s.candidate(level)
	if !ok || !at {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.factors.Load()
	next, moved := correctFactor(cur[b], cur[b]*s.loss[b][i], loss)
	if !moved {
		return false
	}
	fresh := append([]float64(nil), cur...)
	fresh[b] = next
	s.factors.Store(&fresh)
	return true
}

// State implements Selector.
func (s *BucketSelector) State() SelectorState {
	return SelectorState{Version: selectorStateVersion, Kind: s.kind, Factors: s.Factors()}
}

// Restore implements Selector: validate, then install the persisted
// factor vector.
func (s *BucketSelector) Restore(st SelectorState) error {
	if err := validateSelectorState(st, s.kind, s.Buckets()); err != nil {
		return err
	}
	fresh := append([]float64(nil), st.Factors...)
	s.mu.Lock()
	s.factors.Store(&fresh)
	s.mu.Unlock()
	return nil
}

// correctFactor is the Correct-stage law: the clamped EWMA step of a
// bucket factor given the predicted and observed loss of one monitored
// execution.
func correctFactor(fac, predicted, observed float64) (next float64, moved bool) {
	ratio, ok := model.CorrectionRatio(observed, predicted)
	if !ok {
		if observed <= selObsFloor {
			return fac, false // agreement at zero
		}
		// Loss observed where none was predicted: the curve underestimates
		// badly; push toward the upper clamp.
		ratio = model.CorrHi
	}
	next = fac * (1 - selCorrAlpha + selCorrAlpha*ratio)
	if next < model.CorrLo {
		next = model.CorrLo
	} else if next > model.CorrHi {
		next = model.CorrHi
	}
	if math.Abs(next-fac) < 1e-12 {
		return fac, false
	}
	return next, true
}

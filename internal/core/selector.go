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

// The concrete Select-stage implementations: per-feature-bucket loss
// curves fit during calibration, piecewise over the same level grid the
// reactive model uses, with Correct-stage drift repair.
//
// A selector partitions the feature domain (Features.Key) into buckets
// and keeps, per bucket, the calibrated mean loss at every candidate
// level. Select inverts the bucket's curve: the cheapest level whose
// corrected predicted loss stays within the SLA. Correct compares each
// monitored observation against the bucket's prediction and moves the
// bucket's multiplicative correction factor toward the observed/
// predicted ratio — interpolated and clamped by the same two functions
// the cluster control plane applies to shard-level corrections
// (model.KnotLoss, model.CorrectionRatio), so one noisy window cannot
// swing a bucket's whole curve by orders of magnitude.
//
// The curves themselves are immutable after build; only the factor
// vector mutates, copy-on-write under the store's own lock, so Select
// stays lock-free and allocation-free on the hot path. LoopSelector and
// FuncSelector embed one bucketStore for all of that and add only how a
// bucket's curve is read: over a knot grid, or per ladder version.

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

// bucketStore is the state LoopSelector and FuncSelector share: the
// feature-bucket boundaries, one calibrated loss curve per bucket (nil
// for a bucket that saw no calibration data — Select declines there),
// and the per-bucket drift-correction factors behind a copy-on-write
// atomic pointer.
type bucketStore struct {
	kind  string      // SelectorState.Kind: "loop" or "func"
	edges []float64   // bucket boundaries, ascending, len = buckets+1
	loss  [][]float64 // [bucket][knot or version] calibrated mean loss

	factors atomic.Pointer[[]float64]
	mu      sync.Mutex // serializes factor rebuilds (correct, Restore)
}

// init wires a built store with every factor at 1.
func (s *bucketStore) init(kind string, edges []float64, loss [][]float64) {
	s.kind, s.edges, s.loss = kind, edges, loss
	f := make([]float64, len(edges)-1)
	for i := range f {
		f[i] = 1
	}
	s.factors.Store(&f)
}

// Buckets returns the number of feature buckets.
func (s *bucketStore) Buckets() int { return len(s.edges) - 1 }

// Factors returns a copy of the live per-bucket correction factors.
func (s *bucketStore) Factors() []float64 {
	return append([]float64(nil), (*s.factors.Load())...)
}

// bucket maps the input onto a calibrated bucket and its live factor; ok
// is false outside the feature domain and in buckets without a curve.
// Lock-free; no allocation.
func (s *bucketStore) bucket(f Features) (b int, factor float64, ok bool) {
	b = bucketOf(s.edges, f.Key)
	if b < 0 || s.loss[b] == nil {
		return b, 0, false
	}
	return b, (*s.factors.Load())[b], true
}

// correct moves bucket b's factor one Correct-stage step given the
// bucket curve's uncorrected prediction and the observed loss. Returns
// true when the factor moved.
func (s *bucketStore) correct(b int, rawPredicted, observed float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.factors.Load()
	next, moved := correctFactor(cur[b], cur[b]*rawPredicted, observed)
	if !moved {
		return false
	}
	fresh := append([]float64(nil), cur...)
	fresh[b] = next
	s.factors.Store(&fresh)
	return true
}

// State implements Selector.
func (s *bucketStore) State() SelectorState {
	return SelectorState{Version: selectorStateVersion, Kind: s.kind, Factors: s.Factors()}
}

// Restore implements Selector: validate, then install the persisted
// factor vector.
func (s *bucketStore) Restore(st SelectorState) error {
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

// LoopSelector is the Select stage for loops: per-feature-bucket loss
// curves over the calibration knot grid. Built by
// LoopCalibration.BuildSelector.
type LoopSelector struct {
	bucketStore
	base   float64   // the precise level (LoopCalibration baseLevel)
	levels []float64 // knot grid, ascending, shared by all buckets
}

// newLoopSelector wires a built selector; loss[b] == nil marks a bucket
// that saw no calibration runs (Select declines there).
func newLoopSelector(base float64, edges, levels []float64, loss [][]float64) *LoopSelector {
	s := &LoopSelector{base: base, levels: levels}
	s.init("loop", edges, loss)
	return s
}

// Edges returns a copy of the bucket boundary vector.
func (s *LoopSelector) Edges() []float64 { return append([]float64(nil), s.edges...) }

// Select implements Selector: the cheapest calibrated level whose
// corrected predicted loss for the input's bucket stays within the SLA,
// or the precise base level when no knot qualifies. Declines inputs
// outside the calibrated feature domain and buckets that saw no
// calibration runs. Lock-free; no allocation.
func (s *LoopSelector) Select(f Features, sla float64) (float64, bool) {
	if !f.Valid {
		return 0, false
	}
	b, fac, ok := s.bucket(f)
	if !ok {
		return 0, false
	}
	curve := s.loss[b]
	for i := range s.levels {
		if fac*curve[i] <= sla {
			return s.levels[i], true
		}
	}
	return s.base, true
}

// PredictLoss returns the corrected predicted loss for the input at the
// given level (0 outside the calibrated domain), for experiments and
// tests.
func (s *LoopSelector) PredictLoss(f Features, level float64) float64 {
	b, fac, ok := s.bucket(f)
	if !ok {
		return 0
	}
	return fac * model.KnotLoss(s.levels, s.loss[b], s.base, level)
}

// Correct implements Selector: move the input bucket's correction
// factor toward the clamped observed/predicted loss ratio. Returns
// true when the factor moved.
func (s *LoopSelector) Correct(f Features, level, loss float64) bool {
	b, _, ok := s.bucket(f)
	if !ok {
		return false
	}
	return s.correct(b, model.KnotLoss(s.levels, s.loss[b], s.base, level), loss)
}

// FuncSelector is the Select stage for approximable functions: per-
// feature-bucket mean loss per version of the ladder. Select returns
// the version index as the level (model.PreciseVersion when only the
// precise function satisfies the SLA). Built by
// FuncCalibration.BuildFuncSelector.
type FuncSelector struct {
	bucketStore
}

func newFuncSelector(edges []float64, loss [][]float64) *FuncSelector {
	s := &FuncSelector{}
	s.init("func", edges, loss)
	return s
}

// Select implements Selector: the cheapest version (versions ladder
// ascends in precision and work) whose corrected bucket mean loss
// stays within the SLA; model.PreciseVersion when none does. Lock-free;
// no allocation.
func (s *FuncSelector) Select(f Features, sla float64) (float64, bool) {
	if !f.Valid {
		return 0, false
	}
	b, fac, ok := s.bucket(f)
	if !ok {
		return 0, false
	}
	for v, loss := range s.loss[b] {
		if fac*loss <= sla {
			return float64(v), true
		}
	}
	return float64(model.PreciseVersion), true
}

// Correct implements Selector. Precise-version selections carry no
// curve prediction and are skipped.
func (s *FuncSelector) Correct(f Features, level, loss float64) bool {
	v := int(level)
	b, _, ok := s.bucket(f)
	if !ok || v < 0 || v >= len(s.loss[b]) {
		return false
	}
	return s.correct(b, s.loss[b][v], loss)
}

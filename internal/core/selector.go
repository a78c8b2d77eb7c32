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

// The Select stage: Loop's per-input choice of level, in front of the
// shared pipeline (controller.go).
//
//	Select  — map the execution's Features to an approximation level
//	          through the installed Selector's calibrated per-bucket
//	          curves. Absent valid Features or a Selector — or when the
//	          Selector declines the input — the stage falls through to the
//	          reactive level in the snapshot. Loop.stageSelect.
//	Correct — when the Select stage chose the level of a monitored
//	          execution, route the measured loss back into the Selector
//	          so its per-bucket curve corrections track observed drift,
//	          after the policy's own Correct and before the event.
//	          loopMember.correctSelector.
//
// A function's version is already chosen per input by its QoS model
// (Fig 7's range table, Func2's grid), so the Select stage lives on Loop
// alone. Its one implementation is BucketSelector: per-feature-bucket
// loss curves fit during calibration, with Correct-stage drift repair.
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

// Features carries the per-input signal the Select stage keys on. It is
// a plain value — passing one allocates nothing — and the zero value is
// "no features" (Valid false), which every Selector must decline.
//
// Key is the feature the selector's buckets partition (for the search
// workload: the estimated match count from posting-list sizes).
type Features struct {
	Key   float64
	Valid bool
}

// Selector is the pluggable Select stage: it maps per-input Features to
// an approximation level before execution, and absorbs Correct-stage
// drift repairs after monitored executions. Implementations must be
// deterministic (greenlint's nondet analyzer checks Select/Correct
// bodies for wall-clock and unseeded randomness) and safe for
// concurrent use; Select runs on the hot path and must not allocate.
type Selector interface {
	// Select returns the approximation level for the input, or ok=false
	// to decline (invalid features, input outside the calibrated
	// domain), in which case the pipeline falls back to the reactive
	// level.
	Select(f Features, sla float64) (level float64, ok bool)
	// Correct feeds one monitored observation back: the features and
	// level the Select stage chose and the measured QoS loss. It
	// returns true when the observation moved the selector's state (a
	// drift correction was applied).
	Correct(f Features, level, loss float64) bool
	// State snapshots the selector's mutable runtime state for
	// persistence; Restore installs a validated snapshot. Restore must
	// reject NaN/Inf or mis-shaped state.
	State() SelectorState
	Restore(SelectorState) error
}

// selectorSlot wraps the installed Selector so the loop can hold it in
// an atomic.Pointer (interfaces cannot be stored there directly).
type selectorSlot struct{ s Selector }

// SelectorStats snapshots the Select-stage counters (JSON-tagged: the
// struct is embedded verbatim in /stats controller rows).
type SelectorStats struct {
	Installed   bool  `json:"installed"`
	Hits        int64 `json:"hits"`
	Fallbacks   int64 `json:"fallbacks"`
	Overrides   int64 `json:"overrides"`
	Corrections int64 `json:"corrections"`
}

// selDecision records what the Select stage chose for one execution, so
// the Correct stage can route the measured loss back into the bucket
// that chose the level. The zero value means "reactive level used".
type selDecision struct {
	feat     Features
	level    float64
	selected bool
}

// InstallSelector installs (or, with nil, removes) the Select stage.
// Installation is atomic; executions in flight finish under whichever
// selector they started with.
func (l *Loop) InstallSelector(s Selector) {
	if s == nil {
		l.sel.Store(nil)
		return
	}
	l.sel.Store(&selectorSlot{s: s})
}

// Selector returns the installed Selector, or nil.
func (l *Loop) Selector() Selector {
	if slot := l.sel.Load(); slot != nil {
		return slot.s
	}
	return nil
}

// SelectorStats reports the Select-stage counters.
func (l *Loop) SelectorStats() SelectorStats {
	return SelectorStats{
		Installed:   l.sel.Load() != nil,
		Hits:        l.selHits.Load(),
		Fallbacks:   l.selFallbacks.Load(),
		Overrides:   l.selOverrides.Load(),
		Corrections: l.selCorrections.Load(),
	}
}

// stageSelect runs the Select stage: consult the installed Selector
// with the execution's Features. A zero (invalid) Features skips the
// stage without a tally — Begin passes one — so a fallback counts a
// valid input the Selector declined. The caller passes the Execute-stage
// decision so selector choices discarded by a forced-precise breaker
// window are counted as overrides rather than silently dropped.
// Lock-free; no allocation.
func (l *Loop) stageSelect(f Features, o obs, disabled bool) selDecision {
	if !f.Valid {
		return selDecision{}
	}
	return l.selectValid(f, o, disabled)
}

// selectValid is the Select stage for valid Features, kept out of line
// so the test above inlines into begin.
func (l *Loop) selectValid(f Features, o obs, disabled bool) selDecision {
	slot := l.sel.Load()
	if slot == nil {
		return selDecision{}
	}
	level, ok := slot.s.Select(f, l.sla)
	if !ok {
		l.selFallbacks.Add(1)
		return selDecision{}
	}
	if o.forced || disabled {
		l.selOverrides.Add(1)
		return selDecision{}
	}
	l.selHits.Add(1)
	return selDecision{feat: f, level: level, selected: true}
}

// correctSelector is the Select stage's Correct half: when the Selector
// chose this member's level, the measured loss repairs the per-bucket
// curve that chose it. The selector synchronizes its own state
// (copy-on-write), so this runs off the controller lock.
func (m *loopMember) correctSelector(loss float64) {
	if !m.sd.selected {
		return
	}
	if slot := m.loop.sel.Load(); slot != nil && slot.s.Correct(m.sd.feat, m.sd.level, loss) {
		m.loop.selCorrections.Add(1)
	}
}

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

// selectorKind is SelectorState.Kind: a selector's levels are a loop's.
const selectorKind = "loop"

// validateSelectorState rejects version skew, kind mismatches, and
// NaN/Inf or mis-shaped factor vectors.
func validateSelectorState(s SelectorState, buckets int) error {
	if s.Version != selectorStateVersion {
		return fmt.Errorf("core: selector state version %d, want %d", s.Version, selectorStateVersion)
	}
	if s.Kind != selectorKind {
		return fmt.Errorf("core: selector state kind %q, want %q", s.Kind, selectorKind)
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
// mean loss at every candidate level — the loop's knots, falling back to
// its base level (LoopCalibration.BuildSelector).
type BucketSelector struct {
	edges    []float64   // bucket boundaries, ascending, len = buckets+1
	levels   []float64   // candidate levels, ascending
	fallback float64     // the level when no candidate meets the SLA
	loss     [][]float64 // [bucket][candidate]; nil for a bucket without a curve

	factors atomic.Pointer[[]float64]
	mu      sync.Mutex // serializes factor rebuilds (Correct, Restore)
}

// newBucketSelector wires a built selector with every factor at 1.
func newBucketSelector(edges, levels []float64, fallback float64, loss [][]float64) *BucketSelector {
	s := &BucketSelector{edges: append([]float64(nil), edges...), levels: levels, fallback: fallback, loss: loss}
	f := make([]float64, len(edges)-1)
	for i := range f {
		f[i] = 1
	}
	s.factors.Store(&f)
	return s
}

// Buckets returns the number of feature buckets.
func (s *BucketSelector) Buckets() int { return len(s.edges) - 1 }

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
	return SelectorState{Version: selectorStateVersion, Kind: selectorKind, Factors: s.Factors()}
}

// Restore implements Selector: validate, then install the persisted
// factor vector.
func (s *BucketSelector) Restore(st SelectorState) error {
	if err := validateSelectorState(st, s.Buckets()); err != nil {
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

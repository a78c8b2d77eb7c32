package core

import (
	"encoding/json"
	"fmt"
	"math"
)

// Controller state checkpointing: a service that restarts should resume
// with the approximation levels runtime recalibration had reached, not
// the cold model defaults. LoopState and FuncState snapshot the mutable
// runtime state (the models themselves are persisted separately
// by the calibration tooling).

// finite reports a value that is neither NaN nor ±Inf. A snapshot taken
// from a healthy process never contains non-finite numbers; one that does
// is corrupt (or was produced by a run whose QoS callbacks were already
// broken) and restoring it would poison the recalibration state.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// validateCounters checks the counter/interval/loss fields every
// controller snapshot shares — the single home of the snapshot-sanity
// rules each Restore previously duplicated. kind ("loop", "func",
// "func2") prefixes the error text so rejections keep their established
// per-controller phrasing. Restores run once at service start, so they
// reject loudly (descriptive errors) rather than limping along on
// poisoned state.
func validateCounters(kind string, interval, count, monitored int64, lossSum float64) error {
	if interval < 0 {
		return fmt.Errorf("core: %s state: negative sample interval %d", kind, interval)
	}
	if count < 0 || monitored < 0 {
		return fmt.Errorf("core: %s state: negative counters (count=%d monitored=%d)", kind, count, monitored)
	}
	if monitored > count {
		return fmt.Errorf("core: %s state: monitored %d exceeds count %d", kind, monitored, count)
	}
	if !finite(lossSum) || lossSum < 0 {
		return fmt.Errorf("core: %s state: loss sum %v is not a finite non-negative number", kind, lossSum)
	}
	return nil
}

// validateOffset checks a version-ladder precision offset against the
// controller's ladder bounds.
func validateOffset(kind string, offset, nVersions int) error {
	if offset < -nVersions || offset > nVersions {
		return fmt.Errorf("core: %s state: offset %d outside the version ladder [%d, %d]",
			kind, offset, -nVersions, nVersions)
	}
	return nil
}

// selectorSection snapshots an installed selector's state for a
// controller snapshot; nil when none is installed.
func selectorSection(sel Selector) *SelectorState {
	if sel == nil {
		return nil
	}
	ss := sel.State()
	return &ss
}

// restoreSelector applies a snapshot's selector section, tolerating
// version skew both ways: a pre-selector snapshot (section absent)
// restores fail-soft — reactive law intact, selector state cold — and a
// selector-bearing snapshot restores into a selector-less controller by
// dropping the section. A present section that fails validation is an
// error, which callers return before anything mutates.
func restoreSelector(sel Selector, section *SelectorState) error {
	if section == nil || sel == nil {
		return nil
	}
	return sel.Restore(*section)
}

// restoreJSON decodes a JSON-serialized state of type T and applies it;
// kind names the controller in the decode error.
func restoreJSON[T any](kind string, data []byte, restore func(T) error) error {
	var s T
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("core: decode %s state: %w", kind, err)
	}
	return restore(s)
}

// LoopState is the serializable runtime state of a Loop.
type LoopState struct {
	Name      string  `json:"name"`
	Level     float64 `json:"level"`
	Interval  int     `json:"interval"`
	Disabled  bool    `json:"disabled"`
	ForceOff  bool    `json:"force_off"`
	Count     int64   `json:"count"`
	Monitored int64   `json:"monitored"`
	LossSum   float64 `json:"loss_sum"`
	// Adaptive parameters (zero when not in adaptive mode).
	AdaptiveM     float64 `json:"adaptive_m"`
	AdaptivePer   float64 `json:"adaptive_period"`
	AdaptiveDelta float64 `json:"adaptive_delta"`
	// Selector is the versioned Select-stage section: the installed
	// selector's per-bucket correction factors. Absent (nil) in
	// pre-selector snapshots and when no selector is installed —
	// restores then leave the selector state cold (fail-soft) while the
	// reactive law restores as always.
	Selector *SelectorState `json:"selector,omitempty"`
}

// State snapshots the loop's runtime state. Its interval is the
// configured Sample_QoS, not the 1 an open recalibration window runs at.
// The lock only fences out concurrent recalibration so the
// snapshot/counter pair is coherent; the hot path itself never takes it.
func (l *Loop) State() LoopState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	return LoopState{
		Name:      l.cfg.Name,
		Level:     st.level,
		Interval:  int(l.interval),
		Disabled:  st.disabled,
		ForceOff:  st.forceOff,
		Count:     l.count.Load(),
		Monitored: l.monitored.Load(),
		LossSum:   l.lossSum(),
		AdaptiveM: st.adaptive.M, AdaptivePer: st.adaptive.Period,
		AdaptiveDelta: st.adaptive.TargetDelta,
		Selector:      selectorSection(l.Selector()),
	}
}

// Restore applies a previously snapshotted state. The state must belong
// to a loop with the same name, and every field must be plausible for
// this loop's model.
func (l *Loop) Restore(s LoopState) error {
	if s.Name != l.cfg.Name {
		return fmt.Errorf("core: state for %q cannot restore loop %q", s.Name, l.cfg.Name)
	}
	if !finite(s.Level) || s.Level <= 0 {
		return fmt.Errorf("core: loop state: level %v outside (0, %v]", s.Level, l.cfg.Model.BaseLevel)
	}
	if s.Level > l.cfg.Model.BaseLevel {
		return fmt.Errorf("core: loop state: level %v above the model's base level %v", s.Level, l.cfg.Model.BaseLevel)
	}
	if err := validateCounters("loop", int64(s.Interval), s.Count, s.Monitored, s.LossSum); err != nil {
		return err
	}
	if !finite(s.AdaptiveM) || !finite(s.AdaptivePer) || !finite(s.AdaptiveDelta) ||
		s.AdaptiveM < 0 || s.AdaptivePer < 0 || s.AdaptiveDelta < 0 {
		return fmt.Errorf("core: loop state: implausible adaptive parameters (M=%v Period=%v TargetDelta=%v)",
			s.AdaptiveM, s.AdaptivePer, s.AdaptiveDelta)
	}
	if err := restoreSelector(l.Selector(), s.Selector); err != nil {
		return err
	}
	l.restoreCounters(int64(s.Interval), s.Count, s.Monitored, s.LossSum, func(next *loopState) {
		next.level = s.Level
		next.disabled = s.Disabled
		next.forceOff = s.ForceOff
		next.adaptive.M = s.AdaptiveM
		next.adaptive.Period = s.AdaptivePer
		next.adaptive.TargetDelta = s.AdaptiveDelta
		// Old checkpoints may carry a fractional model-derived Period;
		// round it just like NewLoop/SetAdaptive do so approxSaysStop
		// never sees a Period that truncates to zero.
		next.adaptive = normalizeAdaptive(next.adaptive)
	})
	return nil
}

// MarshalState serializes the loop state as JSON.
func (l *Loop) MarshalState() ([]byte, error) {
	return json.Marshal(l.State())
}

// RestoreStateJSON applies a JSON-serialized state.
func (l *Loop) RestoreStateJSON(data []byte) error {
	return restoreJSON("loop", data, l.Restore)
}

// FuncState is the serializable runtime state of a Func or a Func2. A
// function has no Select stage: the "selector" section earlier builds
// wrote is ignored on decode.
type FuncState struct {
	Name      string  `json:"name"`
	Offset    int     `json:"offset"`
	Interval  int64   `json:"interval"`
	Disabled  bool    `json:"disabled"`
	ForceOff  bool    `json:"force_off"`
	Count     int64   `json:"count"`
	Monitored int64   `json:"monitored"`
	LossSum   float64 `json:"loss_sum"`
	WorkMilli int64   `json:"work_milli"`
}

// State snapshots the function controller's runtime state. The lock only
// fences out concurrent recalibration so the snapshot/counter pair is
// coherent.
func (l *ladder[A]) State() FuncState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	return FuncState{
		Name: l.name, Offset: st.offset, Interval: l.interval,
		Disabled: st.disabled, ForceOff: st.forceOff,
		Count: l.count.Load(), Monitored: l.monitored.Load(), LossSum: l.lossSum(),
		WorkMilli: l.workMilli.Load(),
	}
}

// Restore applies a previously snapshotted state. The state must belong
// to a controller with the same name, the offset must be within the
// version ladder, and the counters must be plausible.
func (l *ladder[A]) Restore(s FuncState) error {
	if s.Name != l.name {
		return fmt.Errorf("core: state for %q cannot restore %s %q", s.Name, l.kind, l.name)
	}
	if err := validateOffset(l.kind, s.Offset, l.n); err != nil {
		return err
	}
	if err := validateCounters(l.kind, s.Interval, s.Count, s.Monitored, s.LossSum); err != nil {
		return err
	}
	if s.WorkMilli < 0 {
		return fmt.Errorf("core: %s state: negative accumulated work %d", l.kind, s.WorkMilli)
	}
	l.restoreCounters(s.Interval, s.Count, s.Monitored, s.LossSum, func(next *ladderState) {
		next.offset = s.Offset
		next.disabled = s.Disabled
		next.forceOff = s.ForceOff
	})
	l.workMilli.Store(s.WorkMilli)
	return nil
}

// MarshalState serializes the function state as JSON.
func (l *ladder[A]) MarshalState() ([]byte, error) {
	return json.Marshal(l.State())
}

// RestoreStateJSON applies a JSON-serialized state.
func (l *ladder[A]) RestoreStateJSON(data []byte) error {
	return restoreJSON(l.kind, data, l.Restore)
}

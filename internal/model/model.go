// Package model implements Green's QoS models: the data structures built
// from calibration measurements and the selection logic that turns a
// programmer-specified QoS SLA into concrete approximation parameters.
//
// The paper performs this step in MATLAB ("interpolation and curve fitting
// to construct a function from these measurements"); this package performs
// the equivalent in pure Go:
//
//   - calibration points are interpolated piecewise-linearly over a
//     monotone envelope (QoS loss is physically non-increasing in the loop
//     iteration budget, so noise is smoothed by enforcing monotonicity),
//
//   - model inversion implements the two paper interfaces:
//
//     M                        = QoSModelLoop(QoS_SLA, static)     (1)
//     <M, Period, TargetDelta> = QoSModelLoop(QoS_SLA, adaptive)   (2)
//     <(Mi, lbi, ubi)>         = QoSModelFunc(QoS_SLA)
//
// Models serialize to JSON so the calibration phase can persist them and
// the operational phase can load them (cmd/greencal).
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Common model errors.
var (
	ErrNoData        = errors.New("model: no calibration data")
	ErrUnsatisfiable = errors.New("model: no approximation level satisfies the SLA")
)

// CalPoint is one calibration measurement for one approximation level of a
// loop: terminating the loop early at Level iterations produced the given
// fractional QoS loss and consumed Work work units. Spread is the standard
// deviation of the per-input loss about QoSLoss (zero when unknown, as in
// models stored without it).
type CalPoint struct {
	Level   float64 `json:"level"`
	QoSLoss float64 `json:"qos_loss"`
	Work    float64 `json:"work"`
	Spread  float64 `json:"spread,omitempty"`
}

// LoopModel is the QoS model for one approximable loop.
type LoopModel struct {
	// Name identifies the approximated program unit.
	Name string `json:"name"`
	// BaseWork is the work consumed by the precise (full) loop.
	BaseWork float64 `json:"base_work"`
	// BaseLevel is the iteration count of the precise loop (used to cap
	// recalibration increases).
	BaseLevel float64 `json:"base_level"`
	// Points holds calibration measurements sorted by ascending Level.
	Points []CalPoint `json:"points"`
	// envelope is Points with QoSLoss replaced by the non-increasing
	// envelope; rebuilt on load.
	envelope []CalPoint
}

// BuildLoopModel constructs a loop model from calibration points. Points
// are sorted by level; duplicate levels are averaged. baseWork and
// baseLevel describe the precise loop.
func BuildLoopModel(name string, points []CalPoint, baseWork, baseLevel float64) (*LoopModel, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if baseWork <= 0 || baseLevel <= 0 {
		return nil, errors.New("model: base work and level must be positive")
	}
	ps := append([]CalPoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Level < ps[j].Level })
	// Average duplicates.
	merged := ps[:0]
	for _, p := range ps {
		if n := len(merged); n > 0 && merged[n-1].Level == p.Level {
			merged[n-1].QoSLoss = (merged[n-1].QoSLoss + p.QoSLoss) / 2
			merged[n-1].Work = (merged[n-1].Work + p.Work) / 2
			merged[n-1].Spread = (merged[n-1].Spread + p.Spread) / 2
			continue
		}
		merged = append(merged, p)
	}
	m := &LoopModel{Name: name, BaseWork: baseWork, BaseLevel: baseLevel,
		Points: append([]CalPoint(nil), merged...)}
	m.rebuildEnvelope()
	return m, nil
}

// rebuildEnvelope computes the non-increasing loss envelope: scanning from
// the highest level down, each point's loss is raised to at least the loss
// of the next-higher level. This encodes the physical prior that running
// more iterations cannot lose more QoS, and makes inversion well-defined
// on noisy data.
func (m *LoopModel) rebuildEnvelope() {
	m.envelope = append([]CalPoint(nil), m.Points...)
	for i := len(m.envelope) - 2; i >= 0; i-- {
		if m.envelope[i].QoSLoss < m.envelope[i+1].QoSLoss {
			m.envelope[i].QoSLoss = m.envelope[i+1].QoSLoss
		}
	}
}

// PredictLoss returns the modeled fractional QoS loss when the loop is
// terminated at the given level, by piecewise-linear interpolation on the
// monotone envelope. Levels beyond the calibrated range are clamped.
func (m *LoopModel) PredictLoss(level float64) float64 {
	return interpolate(m.envelope, level, func(p CalPoint) float64 { return p.QoSLoss })
}

// PredictWork returns the modeled work units consumed when terminating at
// the given level.
func (m *LoopModel) PredictWork(level float64) float64 {
	return interpolate(m.Points, level, func(p CalPoint) float64 { return p.Work })
}

// PredictSpread returns the calibrated standard deviation of the loss
// at the given level, interpolated as PredictWork is.
func (m *LoopModel) PredictSpread(level float64) float64 {
	return interpolate(m.Points, level, func(p CalPoint) float64 { return p.Spread })
}

// Speedup returns BaseWork / PredictWork(level): how many times less work
// the approximation performs.
func (m *LoopModel) Speedup(level float64) float64 {
	w := m.PredictWork(level)
	if w <= 0 {
		return math.Inf(1)
	}
	return m.BaseWork / w
}

func interpolate(ps []CalPoint, level float64, y func(CalPoint) float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	if level <= ps[0].Level {
		return y(ps[0])
	}
	if level >= ps[len(ps)-1].Level {
		return y(ps[len(ps)-1])
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Level >= level })
	lo, hi := ps[i-1], ps[i]
	frac := (level - lo.Level) / (hi.Level - lo.Level)
	return y(lo)*(1-frac) + y(hi)*frac
}

// StaticParams implements interface (1): it returns the smallest
// early-termination iteration count M whose modeled loss satisfies the
// SLA. If even the full calibrated range exceeds the SLA, it returns
// ErrUnsatisfiable (the caller then uses the precise loop).
func (m *LoopModel) StaticParams(sla float64) (float64, error) {
	if len(m.envelope) == 0 {
		return 0, ErrNoData
	}
	if m.envelope[len(m.envelope)-1].QoSLoss > sla {
		return 0, ErrUnsatisfiable
	}
	// The envelope loss is non-increasing in level: binary-search the
	// first calibrated level meeting the SLA, then refine linearly within
	// the preceding segment.
	i := sort.Search(len(m.envelope), func(i int) bool {
		return m.envelope[i].QoSLoss <= sla
	})
	if i == 0 {
		return m.envelope[0].Level, nil
	}
	lo, hi := m.envelope[i-1], m.envelope[i]
	if lo.QoSLoss == hi.QoSLoss {
		return hi.Level, nil
	}
	frac := (lo.QoSLoss - sla) / (lo.QoSLoss - hi.QoSLoss)
	return lo.Level + frac*(hi.Level-lo.Level), nil
}

// AdaptiveParams holds the paper's interface-(2) triple.
type AdaptiveParams struct {
	// M is the minimum iteration count before adaptive termination may
	// trigger.
	M float64 `json:"m"`
	// Period is the iteration interval at which QoS improvement is
	// sampled.
	Period float64 `json:"period"`
	// TargetDelta is the QoS improvement per period required to continue
	// iterating; when the measured improvement falls to TargetDelta or
	// below, the loop terminates (the law of diminishing returns).
	TargetDelta float64 `json:"target_delta"`
}

// AdaptiveParamsFor implements interface (2). The static M for the SLA
// anchors the triple: the floor is half the static M (never terminate
// before substantial work is done), the period is the calibration knot
// spacing around M, and the target delta is the modeled QoS improvement
// obtained by running one more period at M — beyond that point the model
// says further iterations buy less than the SLA-relevant improvement rate.
func (m *LoopModel) AdaptiveParamsFor(sla float64) (AdaptiveParams, error) {
	mstatic, err := m.StaticParams(sla)
	if err != nil {
		return AdaptiveParams{}, err
	}
	period := m.knotSpacingNear(mstatic)
	lossAt := m.PredictLoss(mstatic)
	lossNext := m.PredictLoss(mstatic + period)
	delta := lossAt - lossNext // improvement from one more period
	if delta <= 0 {
		// mstatic sits at (or beyond) the last calibrated knot, where the
		// clamped interpolation is flat; fall back to the backward slope,
		// the improvement rate *approaching* mstatic, which bounds the
		// forward improvement from above for a convex loss curve.
		delta = m.PredictLoss(mstatic-period) - lossAt
	}
	if delta < 0 {
		delta = 0
	}
	return AdaptiveParams{M: mstatic / 2, Period: period, TargetDelta: delta}, nil
}

// knotSpacingNear returns the calibration level spacing around the given
// level, falling back to 1/10 of the calibrated span for degenerate data.
func (m *LoopModel) knotSpacingNear(level float64) float64 {
	ps := m.Points
	if len(ps) < 2 {
		return math.Max(1, level/10)
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Level >= level })
	if i == 0 {
		i = 1
	}
	if i >= len(ps) {
		i = len(ps) - 1
	}
	d := ps[i].Level - ps[i-1].Level
	if d <= 0 {
		return math.Max(1, (ps[len(ps)-1].Level-ps[0].Level)/10)
	}
	return d
}

// Levels returns the calibrated levels in ascending order. Recalibration
// uses these as the discrete accuracy ladder.
func (m *LoopModel) Levels() []float64 {
	ls := make([]float64, len(m.Points))
	for i, p := range m.Points {
		ls[i] = p.Level
	}
	return ls
}

// MarshalJSON / UnmarshalJSON round-trip the model, rebuilding the
// envelope on load.
func (m *LoopModel) MarshalJSON() ([]byte, error) {
	type plain LoopModel
	return json.Marshal((*plain)(m))
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *LoopModel) UnmarshalJSON(data []byte) error {
	type plain LoopModel
	if err := json.Unmarshal(data, (*plain)(m)); err != nil {
		return err
	}
	if len(m.Points) == 0 {
		return ErrNoData
	}
	sort.Slice(m.Points, func(i, j int) bool { return m.Points[i].Level < m.Points[j].Level })
	m.rebuildEnvelope()
	return nil
}

// FuncSample is one calibration measurement of a function version: calling
// the approximate version at input X produced the given fractional QoS
// loss relative to the precise version.
type FuncSample struct {
	X    float64 `json:"x"`
	Loss float64 `json:"loss"`
}

// VersionCurve is the calibration curve of one approximate function
// version.
type VersionCurve struct {
	// Name labels the version, e.g. "exp(3)".
	Name string `json:"name"`
	// Work is the per-call work units of this version; SpeedupFactor
	// against the precise version is PreciseWork/Work.
	Work float64 `json:"work"`
	// Samples sorted by ascending X.
	Samples []FuncSample `json:"samples"`
}

// LossAt interpolates the version's loss at input x (clamped at the
// calibrated range ends).
func (v *VersionCurve) LossAt(x float64) float64 {
	ps := v.Samples
	if len(ps) == 0 {
		return math.Inf(1)
	}
	if x <= ps[0].X {
		return ps[0].Loss
	}
	if x >= ps[len(ps)-1].X {
		return ps[len(ps)-1].Loss
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].X >= x })
	lo, hi := ps[i-1], ps[i]
	frac := (x - lo.X) / (hi.X - lo.X)
	return lo.Loss*(1-frac) + hi.Loss*frac
}

// FuncModel is the QoS model for one approximable function: the
// calibration curves of each approximate version, ordered by increasing
// precision (the paper's function-pointer-array order).
type FuncModel struct {
	Name string `json:"name"`
	// PreciseWork is the per-call work units of the precise function.
	PreciseWork float64 `json:"precise_work"`
	// Versions in increasing precision order.
	Versions []VersionCurve `json:"versions"`
}

// Range selects version Version (index into Versions) for inputs in
// [Lo, Hi). Version == PreciseVersion means "use the precise function".
type Range struct {
	Version int     `json:"version"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

// PreciseVersion is the sentinel Range.Version denoting the precise
// function.
const PreciseVersion = -1

// BuildFuncModel validates and constructs a function model.
func BuildFuncModel(name string, preciseWork float64, versions []VersionCurve) (*FuncModel, error) {
	if len(versions) == 0 {
		return nil, ErrNoData
	}
	if preciseWork <= 0 {
		return nil, errors.New("model: precise work must be positive")
	}
	for i := range versions {
		if len(versions[i].Samples) == 0 {
			return nil, fmt.Errorf("model: version %q has no samples", versions[i].Name)
		}
		if versions[i].Work <= 0 {
			return nil, fmt.Errorf("model: version %q has non-positive work", versions[i].Name)
		}
		sort.Slice(versions[i].Samples, func(a, b int) bool {
			return versions[i].Samples[a].X < versions[i].Samples[b].X
		})
	}
	return &FuncModel{Name: name, PreciseWork: preciseWork,
		Versions: append([]VersionCurve(nil), versions...)}, nil
}

// Ranges implements the paper's QoSModelFunc interface: it partitions the
// calibrated input domain into ranges and, for each, selects the cheapest
// (least work) version whose modeled loss satisfies the SLA; where no
// version qualifies, the precise function is selected. Versions that are
// never selected anywhere are thereby discarded, reproducing the paper's
// rejection of exp(5)/exp(6) for not being competitive.
func (m *FuncModel) Ranges(sla float64) []Range {
	grid := m.sampleGrid()
	if len(grid) == 0 {
		return nil
	}
	// Choose per grid knot.
	choice := make([]int, len(grid))
	for i, x := range grid {
		choice[i] = m.bestVersionAt(x, sla)
	}
	// Merge adjacent knots with the same choice into ranges. Each range
	// covers [knot_i, knot_{i+1}) boundaries at segment midpoints so the
	// selection switches halfway between differently-choosing knots.
	var out []Range
	start := grid[0]
	for i := 1; i <= len(grid); i++ {
		if i < len(grid) && choice[i] == choice[i-1] {
			continue
		}
		var hi float64
		if i == len(grid) {
			hi = grid[len(grid)-1]
		} else {
			hi = (grid[i-1] + grid[i]) / 2
		}
		out = append(out, Range{Version: choice[i-1], Lo: start, Hi: hi})
		start = hi
	}
	// Extend the outermost ranges to infinity only if they selected the
	// precise version; outside the calibrated domain the model knows
	// nothing, so approximation is not allowed there (the synthesized
	// QoS_Fn_Approx in the paper likewise returns false outside the
	// calibrated argument ranges).
	return out
}

// sampleGrid returns the union of all versions' sample x positions.
func (m *FuncModel) sampleGrid() []float64 {
	set := make(map[float64]struct{})
	for i := range m.Versions {
		for _, s := range m.Versions[i].Samples {
			set[s.X] = struct{}{}
		}
	}
	grid := make([]float64, 0, len(set))
	for x := range set {
		grid = append(grid, x)
	}
	sort.Float64s(grid)
	return grid
}

// bestVersionAt returns the index of the cheapest version meeting the SLA
// at x, or PreciseVersion.
func (m *FuncModel) bestVersionAt(x, sla float64) int {
	best := PreciseVersion
	bestWork := m.PreciseWork
	for i := range m.Versions {
		v := &m.Versions[i]
		if v.LossAt(x) <= sla && v.Work < bestWork {
			best = i
			bestWork = v.Work
		}
	}
	return best
}

// VersionName returns a human-readable name for a version index, including
// the precise sentinel.
func (m *FuncModel) VersionName(idx int) string {
	if idx == PreciseVersion {
		return "precise"
	}
	if idx < 0 || idx >= len(m.Versions) {
		return fmt.Sprintf("invalid(%d)", idx)
	}
	return m.Versions[idx].Name
}

package experiments

import (
	"fmt"
	"math"
	"sort"

	"green/internal/approxmath"
	"green/internal/blackscholes"
	"green/internal/core"
	"green/internal/energy"
	"green/internal/model"
	"green/internal/workload"
)

func init() {
	register("fig8a", "blackscholes calibration: QoS loss of exp(3..6) vs input", runFig8a)
	register("fig8b", "blackscholes calibration: QoS loss of log(2..4) vs input", runFig8b)
	register("fig8c", "blackscholes: per-version QoS loss and performance improvement", runFig8c)
	register("fig23", "blackscholes versions: normalized execution time and energy", runFig23)
	register("fig24", "blackscholes versions: QoS loss", runFig24)
}

// bsFixture is the blackscholes setup: a training portfolio (the paper's
// 64K-option simulation set) and a larger native portfolio (10M options
// in the paper; scaled here).
type bsFixture struct {
	train  []workload.Option
	native []workload.Option
	cost   *energy.CostModel
}

// Per-call work in "term" units (polynomial-term equivalents). The
// non-transcendental remainder of pricing one option (CNDF polynomial,
// arithmetic, memory) is charged as bsBodyTerms, calibrated so the best
// combined approximation lands near the paper's ~28% improvement.
const (
	bsBodyTerms   = 150.0
	bsLocalSLA    = 0.01
	bsAppSLA      = 0.01
	bsExpBinWidth = 0.1
	bsLogBinWidth = 0.05
)

func newBSFixture(o Options) *bsFixture {
	return &bsFixture{
		train:  workload.Options(workload.Split(o.Seed, 600), o.scaled(6400, 400)),
		native: workload.Options(workload.Split(o.Seed, 601), o.scaled(20000, 800)),
		cost: &energy.CostModel{
			IdleWatts:   120,
			UnitSeconds: map[string]float64{"term": 1.2e-9},
			UnitJoules:  map[string]float64{"term": 1.5e-10},
		},
	}
}

// expVersions returns the Taylor exp implementations in increasing
// precision with their names and term costs.
func expVersions() (fns []core.Fn, names []string, work []float64) {
	for deg := 3; deg <= 6; deg++ {
		fns = append(fns, core.Fn(approxmath.ExpTaylor(deg)))
		names = append(names, fmt.Sprintf("e(%d)", deg))
		work = append(work, float64(approxmath.ExpTerms(deg)))
	}
	return fns, names, work
}

func logVersions() (fns []core.Fn, names []string, work []float64) {
	for deg := 2; deg <= 4; deg++ {
		fns = append(fns, core.Fn(approxmath.LogTaylor(deg)))
		names = append(names, fmt.Sprintf("lg(%d)", deg))
		work = append(work, float64(approxmath.LogTerms(deg)))
	}
	return fns, names, work
}

// calibrateExp builds the exp function model over the exp arguments the
// training portfolio actually generates (paper Figure 8(a)).
func (f *bsFixture) calibrateExp() (*model.FuncModel, error) {
	fns, names, work := expVersions()
	cal, err := core.NewFuncCalibration("exp", float64(approxmath.PreciseExpTerms),
		names, work, bsExpBinWidth)
	if err != nil {
		return nil, err
	}
	args := blackscholes.ObservedExpArgs(f.train)
	if err := cal.Calibrate(math.Exp, fns, args, nil); err != nil {
		return nil, err
	}
	return cal.Build()
}

func (f *bsFixture) calibrateLog() (*model.FuncModel, error) {
	fns, names, work := logVersions()
	cal, err := core.NewFuncCalibration("log", float64(approxmath.PreciseLogTerms),
		names, work, bsLogBinWidth)
	if err != nil {
		return nil, err
	}
	args := blackscholes.ObservedLogArgs(f.train)
	if err := cal.Calibrate(math.Log, fns, args, nil); err != nil {
		return nil, err
	}
	return cal.Build()
}

func runFig8a(o Options) (*Table, error) {
	f := newBSFixture(o)
	m, err := f.calibrateExp()
	if err != nil {
		return nil, err
	}
	// The paper's Figure 8(a) plots x in [-2, 0]; arguments beyond that
	// exist in the tail of the workload but the figure (and the useful
	// approximation region) is this window.
	t := versionCurveTable(m, "x (exp argument)", -2.05, 0.05)
	t.AddNote("arguments below -2 occur in the workload tail; there every Taylor version diverges and the model selects the precise function")
	return t, nil
}

func runFig8b(o Options) (*Table, error) {
	f := newBSFixture(o)
	m, err := f.calibrateLog()
	if err != nil {
		return nil, err
	}
	return versionCurveTable(m, "x (log argument)", 0.55, 1.55), nil
}

// versionCurveTable renders a FuncModel's per-version loss curves over a
// common grid restricted to [lo, hi] (the calibration-figure format of
// Figures 8a/8b).
func versionCurveTable(m *model.FuncModel, xLabel string, lo, hi float64) *Table {
	cols := []string{xLabel}
	for _, v := range m.Versions {
		cols = append(cols, v.Name)
	}
	t := &Table{Columns: cols}
	// Common grid: union of version sample xs, subsampled to ~12 rows.
	xs := map[float64]bool{}
	for _, v := range m.Versions {
		for _, s := range v.Samples {
			if s.X >= lo && s.X <= hi {
				xs[s.X] = true
			}
		}
	}
	grid := make([]float64, 0, len(xs))
	for x := range xs {
		grid = append(grid, x)
	}
	sort.Float64s(grid)
	stride := len(grid)/12 + 1
	for i := 0; i < len(grid); i += stride {
		row := []string{fmt.Sprintf("%.2f", grid[i])}
		for _, v := range m.Versions {
			row = append(row, pct(v.LossAt(grid[i])))
		}
		t.AddRow(row...)
	}
	return t
}

// bsHalf is one implementation of exp or of log. Its work per call is a
// constant in term units or, for the range-based e(cb), metered by the
// Func controller that picks a Taylor version per argument.
type bsHalf struct {
	fn   func(float64) float64
	work float64
	ctl  *core.Func
}

// The library functions the base version prices with.
var (
	preciseExp = bsHalf{fn: math.Exp, work: approxmath.PreciseExpTerms}
	preciseLog = bsHalf{fn: math.Log, work: approxmath.PreciseLogTerms}
)

// terms is the half's work over n options that call it calls times each.
func (h bsHalf) terms(calls, n float64) float64 {
	if h.ctl != nil {
		return h.ctl.Work()
	}
	return h.work * calls * n
}

// bsVersion is one evaluated blackscholes configuration: a choice of exp
// implementation and log implementation.
type bsVersion struct {
	name     string
	exp, log bsHalf
}

// price evaluates the portfolio under the version and returns the prices
// plus the total work in term units.
func (v bsVersion) price(opts []workload.Option) ([]float64, float64, error) {
	for _, h := range []bsHalf{v.exp, v.log} {
		if h.ctl != nil {
			h.ctl.WorkReset()
		}
	}
	prices, err := blackscholes.PricePortfolio(opts, blackscholes.MathFns{Exp: v.exp.fn, Log: v.log.fn})
	if err != nil {
		return nil, 0, err
	}
	n := float64(len(opts))
	return prices, bsBodyTerms*n + v.exp.terms(blackscholes.ExpCallsPerOption, n) +
		v.log.terms(blackscholes.LogCallsPerOption, n), nil
}

// sweep prices the portfolio — the application's one input — precisely
// once and then under each version, judging each version's prices
// against the precise ones.
func (f *bsFixture) sweep(opts []workload.Option, versions []bsVersion) (*sweep, error) {
	names := make([]string, len(versions))
	for l, v := range versions {
		names[l] = v.name
	}
	return measureAll(1, 1, names, func(_ int, loss, work []float64) (float64, error) {
		basePrices, baseWork, err := bsVersion{exp: preciseExp, log: preciseLog}.price(opts)
		if err != nil {
			return 0, err
		}
		for l, v := range versions {
			prices, w, err := v.price(opts)
			if err != nil {
				return 0, err
			}
			loss[l], work[l] = appLoss(basePrices, prices), w
		}
		return baseWork, nil
	})
}

// appLoss is the blackscholes application QoS: mean relative difference
// in option prices, with per-option loss saturating at 100% (a price that
// is completely wrong cannot be more than completely wrong; fixed Taylor
// versions evaluated outside their validity region would otherwise swamp
// the mean).
func appLoss(precise, approx []float64) float64 {
	sum := 0.0
	for i := range precise {
		denom := math.Abs(precise[i])
		if denom < 0.01 {
			denom = 0.01 // cents floor: deep out-of-the-money options
		}
		l := math.Abs(approx[i]-precise[i]) / denom
		if l > 1 {
			l = 1
		}
		sum += l
	}
	return sum / float64(len(precise))
}

// halves returns every exp and log implementation under the name the
// figures give it, and the exp model behind the range-based e(cb).
func (f *bsFixture) halves() (map[string]bsHalf, *model.FuncModel, error) {
	expM, err := f.calibrateExp()
	if err != nil {
		return nil, nil, err
	}
	expFns, expNames, expWork := expVersions()
	cb, err := core.NewFunc(core.FuncConfig{
		Name: "exp", Model: expM, SLA: bsLocalSLA,
	}, math.Exp, expFns)
	if err != nil {
		return nil, nil, err
	}
	h := map[string]bsHalf{
		"precise-exp": preciseExp,
		"precise-log": preciseLog,
		"e(cb)":       {fn: cb.Call, ctl: cb},
	}
	for i, name := range expNames {
		h[name] = bsHalf{fn: expFns[i], work: expWork[i]}
	}
	logFns, logNames, logWork := logVersions()
	for i, name := range logNames {
		h[name] = bsHalf{fn: logFns[i], work: logWork[i]}
	}
	return h, expM, nil
}

// bsVersions is the Figure 8c / 23 / 24 version set: every exp with the
// library log, every log with the library exp, and e(cb) combined with
// the candidate logs.
func bsVersions(h map[string]bsHalf) []bsVersion {
	var vs []bsVersion
	for _, e := range []string{"e(3)", "e(4)", "e(5)", "e(6)", "e(cb)"} {
		vs = append(vs, bsVersion{e, h[e], preciseLog})
	}
	for _, l := range []string{"lg(2)", "lg(3)", "lg(4)"} {
		vs = append(vs, bsVersion{l, preciseExp, h[l]})
	}
	for _, l := range []string{"lg(2)", "lg(4)"} {
		vs = append(vs, bsVersion{"e(cb)+" + l, h["e(cb)"], h[l]})
	}
	return vs
}

func runFig8c(o Options) (*Table, error) {
	f := newBSFixture(o)
	h, expM, err := f.halves()
	if err != nil {
		return nil, err
	}
	sw, err := f.sweep(f.train, bsVersions(h))
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: []string{"version", "QoS loss", "perf improvement"}}
	for l, name := range sw.names {
		t.AddRow(name, pct(sw.loss[0][l]), pct(sw.base[0]/sw.work[0][l]-1))
	}
	// Report the exp(cb) range structure, mirroring Figure 7.
	for _, r := range expM.Ranges(bsLocalSLA) {
		t.AddNote("exp range [%.2f, %.2f): %s", r.Lo, r.Hi, expM.VersionName(r.Version))
	}
	return t, nil
}

// chooseCombo runs the §3.4.1 combination search over exp/log candidates
// with measured application QoS on the training portfolio: the candidates'
// cross product is one sweep, and the search reads its evaluations off it.
func (f *bsFixture) chooseCombo(h map[string]bsHalf) (string, error) {
	var cands [2][]core.Setting
	for unit, labels := range [2][]string{
		{"e(3)", "e(4)", "e(cb)", "precise-exp"},
		{"lg(2)", "lg(3)", "lg(4)", "precise-log"},
	} {
		for _, label := range labels {
			cands[unit] = append(cands[unit], core.Setting{Unit: unit, Label: label})
		}
	}
	var combos []bsVersion
	level := map[string]int{} // combination -> its level in the sweep
	for _, e := range cands[0] {
		for _, l := range cands[1] {
			name := e.Label + "+" + l.Label
			level[name] = len(combos)
			combos = append(combos, bsVersion{name, h[e.Label], h[l.Label]})
		}
	}
	sw, err := f.sweep(f.train, combos)
	if err != nil {
		return "", err
	}
	eval := func(combo []core.Setting) (float64, float64, error) {
		l := level[combo[0].Label+"+"+combo[1].Label]
		return sw.loss[0][l], sw.base[0] / sw.work[0][l], nil
	}
	res, err := core.CombineSearch(cands[:], bsAppSLA, eval)
	if err != nil {
		return "", err
	}
	return res.Best[0].Label + "+" + res.Best[1].Label, nil
}

func runFig23(o Options) (*Table, error) {
	f := newBSFixture(o)
	h, _, err := f.halves()
	if err != nil {
		return nil, err
	}
	sw, err := f.sweep(f.native, bsVersions(h))
	if err != nil {
		return nil, err
	}
	reps, base := sw.reports(f.cost, "term")
	t := perfTable([]string{"version", "norm. exec time", "norm. energy"},
		append(sw.names, "Base"), append(reps, base), base, seconds, joules)
	combo, err := f.chooseCombo(h)
	if err != nil {
		return nil, err
	}
	t.AddNote("combination search selected %s for the %.0f%% application SLA", combo, bsAppSLA*100)
	t.AddNote("native portfolio: %d options; training: %d options", len(f.native), len(f.train))
	return t, nil
}

func runFig24(o Options) (*Table, error) {
	f := newBSFixture(o)
	h, _, err := f.halves()
	if err != nil {
		return nil, err
	}
	sw, err := f.sweep(f.native, bsVersions(h))
	if err != nil {
		return nil, err
	}
	t := lossTable(append(sw.names, "Base"), append(sw.means(), 0))
	t.AddNote("QoS loss = mean relative difference in option prices vs base")
	return t, nil
}

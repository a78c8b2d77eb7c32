// Package green is a Go reproduction of the Green system from
// "Green: A Framework for Supporting Energy-Conscious Programming using
// Controlled Approximation" (Baek & Chilimbi, PLDI 2010).
//
// Green lets a program trade a small, *controlled* amount of quality of
// service (QoS) for significant performance and energy improvements, with
// statistical guarantees that a programmer-specified QoS SLA is met. It
// supports two kinds of approximation:
//
//   - Loop approximation: an expensive loop is terminated early, either
//     statically (at an iteration threshold M derived from the QoS model)
//     or adaptively (when the QoS improvement per period of iterations
//     falls below a target — the law of diminishing returns).
//
//   - Function approximation: an expensive function is replaced, over
//     input ranges where the QoS model says it is safe, by one of several
//     programmer-supplied approximate versions.
//
// The system operates in two phases. In the *calibration phase*
// (LoopCalibration, FuncCalibration) the precise program runs on training
// inputs while Green records the QoS loss each candidate approximation
// level would have produced, and builds a QoS model. In the *operational
// phase* the model plus the programmer's QoS SLA determine the
// approximation decisions (Loop, Func); occasionally — every SampleInterval
// executions — an execution is *monitored*: the precise computation runs,
// the real QoS loss is measured, and the recalibration policy
// (RecalibratePolicy) moves the approximation level up or down so the SLA
// keeps being met even when production inputs drift from the training
// distribution.
//
// Applications with several approximations choose their combination with
// CombineSearch over the local models and pass the units to NewApp, which
// coordinates global recalibration with sensitivity ranking and randomized
// exponential backoff, judging the application's loss by Figure 3's band.
//
// The paper implements Green as a C/C++ language extension in the Phoenix
// compiler; Go has no compiler extension point, so the identical generated
// logic is exposed as library calls. The paper's annotation
//
//	#approx_loop (*QoS_Compute, Calibrate_QoS, QoS_SLA, Sample_QoS, static)
//	for (i = 0; i < N; i++) { body }
//
// becomes
//
//	loop, _ := green.NewLoop(green.LoopConfig{
//	        Model: model, SLA: 0.02, Mode: green.Static, SampleInterval: 100,
//	})
//	exec, _ := loop.Begin(qos) // qos implements green.LoopQoS
//	for i := 0; i < N && exec.Continue(i); i++ { body }
//	exec.Finish(i)
package green

import (
	"green/internal/core"
	"green/internal/model"
)

// Loop approximation modes.
const (
	// Static terminates the loop once the iteration count exceeds the
	// model-derived threshold M.
	Static = core.Static
	// Adaptive terminates the loop when the QoS improvement per Period
	// iterations falls to TargetDelta or below.
	Adaptive = core.Adaptive
)

// Recalibration actions returned by policies.
const (
	ActNone     = core.ActNone
	ActIncrease = core.ActIncrease
	ActDecrease = core.ActDecrease
)

// Panic circuit-breaker states: a QoS callback that panics during a
// monitored execution is contained and counted; three consecutive
// failures trip the controller to forced-precise (open) until a
// half-open probe succeeds.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Core controller types. See the package documentation for the protocol;
// the underlying implementations are documented in green/internal/core.
type (
	// Loop is an approximable loop controller (the paper's approx_loop).
	Loop = core.Loop
	// LoopConfig configures a Loop.
	LoopConfig = core.LoopConfig
	// LoopExec is one execution of an approximated loop.
	LoopExec = core.LoopExec
	// LoopMode selects Static or Adaptive loop approximation.
	LoopMode = core.LoopMode
	// LoopQoS is the programmer-supplied QoS_Compute for loops: Record
	// stores the QoS at the would-be early-termination point; Loss
	// compares it against the QoS at the loop's natural end.
	LoopQoS = core.LoopQoS
	// DeltaQoS extends LoopQoS with the per-period QoS improvement needed
	// by Adaptive mode.
	DeltaQoS = core.DeltaQoS
	// Result summarizes a finished loop execution.
	Result = core.Result
	// LoopBatch is one batch of loop executions (Loop.ExecN): the batched
	// analogue of LoopExec, amortizing the controller's snapshot load and
	// sampling decision across the batch.
	LoopBatch = core.LoopBatch
	// BatchResult summarizes a finished batch.
	BatchResult = core.BatchResult

	// Func is an approximable function controller (the paper's
	// approx_func).
	Func = core.Func
	// FuncConfig configures a Func.
	FuncConfig = core.FuncConfig
	// Fn is a scalar function candidate for approximation.
	Fn = core.Fn
	// FuncQoS compares precise and approximate return values.
	FuncQoS = core.FuncQoS

	// Action is a recalibration decision kind.
	Action = core.Action
	// Decision is a recalibration policy's output.
	Decision = core.Decision
	// RecalibratePolicy is the QoS_ReCalibrate extension point.
	RecalibratePolicy = core.RecalibratePolicy
	// WindowedPolicy is the built-in recalibration rule: Figure 3's band
	// judging the mean loss of each window of consecutive monitored
	// executions. A window of one is Figure 3; a window of 100 is the
	// Bing Search rule of Figure 9; a nil Policy installs one sized from
	// the model.
	WindowedPolicy = core.WindowedPolicy

	// App coordinates multiple approximations (§3.4).
	App = core.App
	// AppConfig configures an App; its recalibration applies Figure 3's
	// band to the application-level loss.
	AppConfig = core.AppConfig
	// Unit is the coordinator's view of one approximation.
	Unit = core.Unit
	// Setting is one candidate configuration in the combination search.
	Setting = core.Setting
	// ComboEval measures one combination during the search.
	ComboEval = core.ComboEval
	// SearchResult is the outcome of CombineSearch.
	SearchResult = core.SearchResult

	// LoopCalibration collects calibration-phase loop measurements.
	LoopCalibration = core.LoopCalibration
	// FuncCalibration collects calibration-phase function measurements.
	FuncCalibration = core.FuncCalibration

	// Features carries the per-input signal Loop's Select stage keys on
	// (Loop.ExecFeat): Key and Valid. A plain value; the zero value means
	// "no features", which Begin passes, so the Select stage skips it
	// without a tally. A function picks its version per input through
	// its QoS model and has no Select stage.
	Features = core.Features
	// Selector is the pluggable Select stage: per-input Features to an
	// approximation level before execution, with Correct-stage drift
	// repair after monitored executions.
	Selector = core.Selector
	// SelectorStats snapshots a Loop's Select-stage counters (hits,
	// fallbacks, overrides, corrections).
	SelectorStats = core.SelectorStats
	// SelectorState is the versioned persisted runtime state of a
	// Selector (per-bucket correction factors).
	SelectorState = core.SelectorState
	// BucketSelector is the calibrated per-feature-bucket Select stage
	// (LoopCalibration.BuildSelector).
	BucketSelector = core.BucketSelector

	// Func2 approximates functions of two numeric parameters — the
	// multi-parameter extension the paper notes in footnote 1.
	Func2 = core.Func2
	// Func2Config configures a Func2.
	Func2Config = core.Func2Config
	// Fn2 is a two-parameter function candidate.
	Fn2 = core.Fn2

	// FuncModel2D is the two-parameter grid QoS model.
	FuncModel2D = model.FuncModel2D
	// Grid2D describes the 2-parameter calibration binning.
	Grid2D = model.Grid2D
	// Calibration2D collects 2-parameter calibration samples.
	Calibration2D = model.Calibration2D

	// BreakerState is the panic circuit breaker's state (closed, open,
	// half-open).
	BreakerState = core.BreakerState
	// BreakerStats snapshots a controller's panic-containment breaker:
	// its state, consecutive failures, contained panics, and trips.
	// Available via Loop.Breaker, Func.Breaker, and Func2.Breaker.
	BreakerStats = core.BreakerStats

	// Event describes one monitored execution (observability hook).
	Event = core.Event
	// EventFunc receives monitoring events via LoopConfig.OnEvent /
	// FuncConfig.OnEvent.
	EventFunc = core.EventFunc
	// LoopState / FuncState snapshot controller runtime state for
	// checkpoint/restore across service restarts.
	LoopState = core.LoopState
	// FuncState is the serializable state of both function controllers,
	// Func and Func2.
	FuncState = core.FuncState

	// Controller is the uniform operational surface every controller
	// kind (Loop, Func, Func2) exposes: identity, stats, the scalar
	// approximation level, breaker health, and state checkpointing.
	Controller = core.Controller

	// LoopModel is the QoS model of one loop (levels -> loss, work).
	LoopModel = model.LoopModel
	// FuncModel is the QoS model of one function (version curves).
	FuncModel = model.FuncModel
	// CalPoint is one loop calibration measurement.
	CalPoint = model.CalPoint
	// FuncSample is one function calibration measurement.
	FuncSample = model.FuncSample
	// VersionCurve is one approximate version's calibration curve.
	VersionCurve = model.VersionCurve
	// Range selects a function version over an input interval.
	Range = model.Range
	// AdaptiveParams is the paper's <M, Period, TargetDelta> triple.
	AdaptiveParams = model.AdaptiveParams
)

// PreciseVersion is the sentinel Range.Version denoting "use the precise
// function".
const PreciseVersion = model.PreciseVersion

// Model construction and inversion errors.
var (
	// ErrNoData indicates a model was built from no calibration data.
	ErrNoData = model.ErrNoData
	// ErrUnsatisfiable indicates no calibrated approximation level meets
	// the requested SLA.
	ErrUnsatisfiable = model.ErrUnsatisfiable
	// ErrNoViableCombo indicates the combination search found no
	// combination meeting the application SLA.
	ErrNoViableCombo = core.ErrNoViableCombo
)

// NewLoop creates a loop controller whose initial approximation
// parameters come from cfg.Model and cfg.SLA, per the paper's
// QoS_Model_Loop interface. The derived parameters can be inspected with
// Loop.Level and Loop.Adaptive and overridden with Loop.SetLevel and
// Loop.SetAdaptive.
func NewLoop(cfg LoopConfig) (*Loop, error) { return core.NewLoop(cfg) }

// NewFunc creates a function controller. precise is the exact
// implementation; approx are the programmer-supplied approximate versions
// in increasing precision order, matching cfg.Model's version curves.
func NewFunc(cfg FuncConfig, precise Fn, approx []Fn) (*Func, error) {
	return core.NewFunc(cfg, precise, approx)
}

// NewApp creates a multi-approximation coordinator over units, the
// application's Loops and Funcs. The unit list is fixed here: every
// approximation is known before the first ObserveAppQoS.
func NewApp(cfg AppConfig, units ...Unit) (*App, error) { return core.NewApp(cfg, units...) }

// NewLoopCalibration prepares calibration-phase collection for a loop
// over the candidate termination levels knots; baseLevel and baseWork
// describe the precise loop.
func NewLoopCalibration(name string, knots []float64, baseLevel, baseWork float64) (*LoopCalibration, error) {
	return core.NewLoopCalibration(name, knots, baseLevel, baseWork)
}

// NewFuncCalibration prepares calibration-phase collection for a function
// with the named approximate versions (increasing precision) whose
// per-call work units are work; samples are binned over the input domain
// with the given bin width.
func NewFuncCalibration(name string, preciseWork float64, names []string, work []float64, binWidth float64) (*FuncCalibration, error) {
	return core.NewFuncCalibration(name, preciseWork, names, work, binWidth)
}

// BuildLoopModel constructs a loop QoS model directly from calibration
// points (level, loss, work). Most callers use LoopCalibration instead.
func BuildLoopModel(name string, points []CalPoint, baseWork, baseLevel float64) (*LoopModel, error) {
	return model.BuildLoopModel(name, points, baseWork, baseLevel)
}

// BuildFuncModel constructs a function QoS model directly from version
// curves. Most callers use FuncCalibration instead.
func BuildFuncModel(name string, preciseWork float64, versions []VersionCurve) (*FuncModel, error) {
	return model.BuildFuncModel(name, preciseWork, versions)
}

// NewFunc2 creates a two-parameter function controller (footnote-1
// extension); approx must match cfg.Model's versions in increasing
// precision order.
func NewFunc2(cfg Func2Config, precise Fn2, approx []Fn2) (*Func2, error) {
	return core.NewFunc2(cfg, precise, approx)
}

// NewCalibration2D prepares two-parameter calibration over the grid.
func NewCalibration2D(name string, preciseWork float64, names []string, work []float64, grid Grid2D) (*Calibration2D, error) {
	return model.NewCalibration2D(name, preciseWork, names, work, grid)
}

// CombineSearch exhaustively explores the cross product of per-unit
// candidate settings and returns the fastest combination whose measured
// application QoS loss meets sla (§3.4.1). A nil eval falls back to the
// additive independence estimate, and the walk then skips every subtree
// whose additive loss cannot meet sla; the answer is the exhaustive one.
func CombineSearch(candidates [][]Setting, sla float64, eval ComboEval) (SearchResult, error) {
	return core.CombineSearch(candidates, sla, eval)
}

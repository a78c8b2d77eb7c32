// Package core implements the runtime half of the Green system: the
// synthesized decision logic the paper calls QoS_Approx() and
// QoS_ReCalibrate() (Figures 3, 5, 7 and 9), the calibration-phase data
// collection, and the global coordination of multiple approximations
// (§3.4).
//
// The paper generates this code with the Phoenix compiler from
// approx_loop / approx_func annotations; Go has no such extension point,
// so the identical control logic is packaged as library objects:
//
//   - Loop wraps an expensive loop. Its Begin/Continue/Finish protocol
//     reproduces the synthesized loop code of Figure 3: static early
//     termination at iteration M, adaptive termination by the law of
//     diminishing returns, and periodic monitored executions that run the
//     loop to completion to measure the real QoS loss and feed
//     recalibration.
//   - Func wraps an expensive function with programmer-supplied
//     approximate versions; Call reproduces Figure 7's range-based version
//     selection plus monitored sampling.
//   - RecalibratePolicy is the QoS_ReCalibrate() hook. DefaultPolicy is
//     the paper's default (Figure 3); WindowedPolicy is the Bing Search
//     custom policy (Figure 9). Programs may supply their own, matching
//     the paper's custom-policy support.
//   - App coordinates several approximations: exhaustive combination
//     search over local models (§3.4.1) and global recalibration with
//     sensitivity ranking and randomized exponential backoff (§3.4.2).
package core

import "fmt"

// Action is a recalibration decision.
type Action int

// Recalibration actions. ActIncrease means "increase accuracy" (reduce
// approximation; more iterations or a more precise function version);
// ActDecrease means the opposite.
const (
	ActNone Action = iota
	ActIncrease
	ActDecrease
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActIncrease:
		return "increase-accuracy"
	case ActDecrease:
		return "decrease-accuracy"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Event describes one monitored execution, for observability hooks. The
// paper reports that "the QoS model constructed has provided extremely
// valuable and often unexpected information about their application
// behavior"; Event extends that visibility into the operational phase.
type Event struct {
	// Unit is the approximation's configured name.
	Unit string
	// Loss is the QoS loss measured during the monitored execution.
	Loss float64
	// SLA is the configured target.
	SLA float64
	// Action is the recalibration decision that was applied.
	Action Action
	// Level is the approximation knob after the action: the loop
	// threshold M, or the precision offset for functions.
	Level float64
}

// EventFunc receives monitoring events. Callbacks run outside the
// controller's lock, after the decision has been applied; they must not
// block for long (they execute on the calling goroutine).
type EventFunc func(Event)

// Decision is what a recalibration policy returns after observing a
// monitored execution.
type Decision struct {
	// Action adjusts the approximation level.
	Action Action
	// NewSampleInterval, when positive, replaces the monitoring interval
	// (the paper's Sample_QoS). The windowed Bing policy uses this to
	// switch to monitoring every query for one window and back.
	NewSampleInterval int
}

// RecalibratePolicy is the QoS_ReCalibrate() extension point. Observe is
// called once per monitored execution with the measured fractional QoS
// loss and the configured SLA, and returns the adjustment to apply.
// Implementations may be stateful (e.g. windowed aggregation) but are
// called under the owning approximation's lock and need no internal
// synchronization.
type RecalibratePolicy interface {
	Observe(loss, sla float64) Decision
}

// DefaultPolicy is the paper's default QoS_ReCalibrate (Figure 3):
//
//	if loss > SLA            -> increase accuracy
//	else if loss < 0.9 * SLA -> decrease accuracy
//	else                     -> no change
type DefaultPolicy struct{}

// Observe implements RecalibratePolicy.
func (DefaultPolicy) Observe(loss, sla float64) Decision {
	switch {
	case loss > sla:
		return Decision{Action: ActIncrease}
	case loss < 0.9*sla:
		return Decision{Action: ActDecrease}
	default:
		return Decision{}
	}
}

// WindowedPolicy is the customized Bing Search QoS_ReCalibrate of
// Figure 9. The search QoS metric is 0/1 per query (top-N identical or
// not), so a single monitored query cannot be compared against an SLA of
// the form "99% of queries identical". When a monitored query arrives and
// no window is open, the policy opens a window: it switches the sampling
// interval to 1 so the next Window consecutive queries are all monitored,
// counts the low-QoS ones, and at the end of the window applies the
// default rule to the aggregate loss n_l/n_m, restoring the original
// sampling interval.
type WindowedPolicy struct {
	// Window is the number of consecutive monitored queries to aggregate
	// (100 in the paper).
	Window int
	// BaseInterval is the sampling interval to restore after a window
	// (the saved Sample_QoS).
	BaseInterval int

	nm, nl int
	open   bool
}

// Observe implements RecalibratePolicy.
func (p *WindowedPolicy) Observe(loss, sla float64) Decision {
	if p.Window <= 0 {
		p.Window = 100
	}
	if !p.open {
		p.open = true
		p.nm, p.nl = 0, 0
		// Trigger monitoring for the next Window consecutive queries.
		// This query itself counts as the first monitored one.
	}
	p.nm++
	if loss != 0 {
		p.nl++
	}
	if p.nm < p.Window {
		return Decision{NewSampleInterval: 1}
	}
	// Window complete: act on the aggregate loss.
	p.open = false
	agg := float64(p.nl) / float64(p.nm)
	p.nm, p.nl = 0, 0
	d := DefaultPolicy{}.Observe(agg, sla)
	d.NewSampleInterval = p.BaseInterval
	return d
}

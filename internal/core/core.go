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
//   - RecalibratePolicy is the QoS_ReCalibrate() hook. WindowedPolicy
//     judges the mean loss of a window of monitored executions with the
//     paper's default band: a window of one is Figure 3, a window of 100
//     the Bing Search policy of Figure 9. Programs may supply their own,
//     matching the paper's custom-policy support.
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
	// Monitor asks the controller to monitor every execution while the
	// policy's window is open (the paper's Sample_QoS set to 1). The
	// first decision without it closes the window: the controller
	// returns to the SampleInterval it was built with.
	Monitor bool
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

// band is the paper's default QoS_ReCalibrate rule (Figure 3):
//
//	if loss > SLA            -> increase accuracy
//	else if loss < 0.9 * SLA -> decrease accuracy
//	else                     -> no change
func band(loss, sla float64) Action {
	switch {
	case loss > sla:
		return ActIncrease
	case loss < 0.9*sla:
		return ActDecrease
	default:
		return ActNone
	}
}

// WindowedPolicy is the built-in QoS_ReCalibrate: Figure 3's band
// applied to the mean loss of each window of Window consecutive
// monitored executions. A window of 0 or 1 is Figure 3 itself, and is
// what a nil Policy installs. A window of 100 is the customized Bing
// Search rule of Figure 9: its QoS metric is 0/1 per query (top-N
// identical or not), so a single monitored query cannot be compared
// against an SLA of the form "99% of queries identical", and the mean of
// 0/1 losses is the window's n_l/n_m. While a window is open every
// execution is monitored; when it closes the controller returns to its
// own SampleInterval.
//
// Each controller takes a private copy of the WindowedPolicy it is
// given, so one value may configure several controllers.
type WindowedPolicy struct {
	// Window is the number of consecutive monitored executions whose mean
	// loss one decision judges (100 in the paper's Figure 9).
	Window int

	n   int
	sum float64
}

// Observe implements RecalibratePolicy.
func (p *WindowedPolicy) Observe(loss, sla float64) Decision {
	p.n++
	p.sum += loss
	if p.n < p.Window {
		return Decision{Monitor: true}
	}
	mean := p.sum / float64(p.n)
	p.n, p.sum = 0, 0
	return Decision{Action: band(mean, sla)}
}

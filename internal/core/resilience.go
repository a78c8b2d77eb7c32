package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Panic containment and the per-controller circuit breaker.
//
// The operational phase runs user-supplied QoS callbacks (LoopQoS.Record,
// LoopQoS.Loss, DeltaQoS.Delta, the approximate Fn versions and FuncQoS
// comparator) on the monitored path. Those callbacks are the extra work
// Green itself injects into a request that would otherwise have completed
// normally, so a panic inside them must not take the process down: the
// controller recovers, discards the observation (a contained panic is a
// *failed* observation — its loss value would be garbage), and counts the
// failure against a circuit breaker. After BreakerThreshold consecutive
// failures the breaker trips: the controller is forced precise and
// monitoring is suspended, so the faulty callback stops running entirely.
// After a cool-down measured in executions the breaker goes half-open and
// lets exactly one monitored probe re-test the callbacks; a clean probe
// closes the breaker, a panicking probe re-opens it with the cool-down
// doubled (the same escalate-on-repeated-failure spirit as App's
// randomized exponential backoff), capped at maxCooldownFactor times the
// base cool-down.
//
// Panics in the program's own computation — the loop body, or the precise
// function on any call — propagate exactly as they would without Green;
// containment covers only what the monitored path added.

// BreakerState is the circuit breaker's state.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: callbacks run normally (under recover).
	BreakerClosed BreakerState = iota
	// BreakerOpen: the controller is forced precise and monitoring is
	// suspended until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen: one monitored probe is in flight re-testing the
	// callbacks; everything else is still forced precise.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerStats is a point-in-time snapshot of a controller's breaker.
type BreakerStats struct {
	// State is the breaker's current state.
	State BreakerState `json:"state"`
	// ConsecutiveFailures counts contained panics since the last clean
	// monitored observation.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// ContainedPanics counts every panic recovered on the monitored path
	// over the controller's lifetime.
	ContainedPanics int64 `json:"contained_panics"`
	// Trips counts transitions into the open state (including re-opens
	// after a failed probe).
	Trips int64 `json:"trips"`
}

// maxCooldownFactor caps the exponential cool-down escalation.
const maxCooldownFactor = 32

// breaker is the per-controller circuit breaker. The closed-state fast
// path is a single atomic load; transitions take b.mu.
type breaker struct {
	threshold    int64
	baseCooldown int64

	state     atomic.Int32
	failures  atomic.Int64 // consecutive contained panics
	contained atomic.Int64 // lifetime contained panics
	trips     atomic.Int64

	mu       sync.Mutex
	cooldown int64 // current cool-down (escalates on failed probes)
	openedAt int64 // execution sequence at the last open
	probeAt  int64 // execution sequence of the in-flight probe
}

// newBreaker builds a breaker from the config knobs. threshold zero means
// 3; negative means "never trip" (panics are still contained and
// counted). cooldown zero derives four sampling intervals, floored at 16
// executions so a breaker on an every-execution-monitored controller
// still backs off meaningfully.
func newBreaker(threshold, cooldown, sampleInterval int) *breaker {
	b := &breaker{}
	switch {
	case threshold < 0:
		b.threshold = math.MaxInt64
	case threshold == 0:
		b.threshold = 3
	default:
		b.threshold = int64(threshold)
	}
	if cooldown <= 0 {
		cooldown = 4 * sampleInterval
		if cooldown < 16 {
			cooldown = 16
		}
	}
	b.baseCooldown = int64(cooldown)
	b.cooldown = int64(cooldown)
	return b
}

// closed is the closed-state fast path, small enough to inline into the
// Execute stage: while it holds, observeBegin has nothing to say.
func (b *breaker) closed() bool {
	return BreakerState(b.state.Load()) == BreakerClosed
}

// observeBegin is consulted once per execution (sequence number n) on the
// controller's Begin/Call path. It reports whether this execution must run
// forced-precise with monitoring suspended, and whether it is the
// half-open probe (forced monitored, callbacks enabled).
func (b *breaker) observeBegin(n int64) (forcePrecise, probe bool) {
	if b.closed() {
		return false, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // raced closed since the fast-path load
		return false, false
	case BreakerOpen:
		if n-b.openedAt >= b.cooldown {
			b.state.Store(int32(BreakerHalfOpen))
			b.probeAt = n
			return false, true
		}
		return true, false
	default: // BreakerHalfOpen
		// If the in-flight probe's handle was lost (never Finished), the
		// breaker would stay half-open forever; after another cool-down
		// give up on it and launch a fresh probe.
		if n-b.probeAt >= b.cooldown {
			b.probeAt = n
			return false, true
		}
		return true, false
	}
}

// onPanic records a contained panic observed at execution sequence n and
// reports whether it tripped (or re-opened) the breaker.
func (b *breaker) onPanic(n int64, probe bool) (tripped bool) {
	b.contained.Add(1)
	f := b.failures.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerState(b.state.Load())
	if probe || st == BreakerHalfOpen {
		// Failed probe: re-open with the cool-down doubled.
		if b.cooldown < b.baseCooldown*maxCooldownFactor {
			b.cooldown *= 2
		}
		b.openedAt = n
		b.state.Store(int32(BreakerOpen))
		b.trips.Add(1)
		return true
	}
	if st == BreakerClosed && f >= b.threshold {
		b.openedAt = n
		b.state.Store(int32(BreakerOpen))
		b.trips.Add(1)
		return true
	}
	return false
}

// onSuccess records a clean monitored observation. A successful probe
// closes the breaker and resets the cool-down escalation.
func (b *breaker) onSuccess(probe bool) {
	b.failures.Store(0)
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) == BreakerHalfOpen {
		b.cooldown = b.baseCooldown
		b.state.Store(int32(BreakerClosed))
	}
}

// stats snapshots the breaker.
func (b *breaker) stats() BreakerStats {
	return BreakerStats{
		State:               BreakerState(b.state.Load()),
		ConsecutiveFailures: b.failures.Load(),
		ContainedPanics:     b.contained.Load(),
		Trips:               b.trips.Load(),
	}
}

// Breaker is the standalone form of the per-controller circuit breaker,
// for guarding things that are not QoS callbacks with the same state
// machine — the cluster shard client wraps one around every worker
// replica endpoint, so a replica that keeps failing (transport errors,
// 5xx, malformed bodies) is isolated exactly the way a panicking QoS
// callback is: trip after Threshold consecutive failures, cool down
// over Allow consults, half-open with a single probe, escalate the
// cool-down on failed probes.
//
// The caller supplies the consult sequence number n (a per-guarded-
// resource atomic counter); the cool-down is measured in consults, so
// an open breaker heals only while traffic keeps asking.
type Breaker struct {
	b *breaker
}

// NewBreaker builds a standalone breaker. threshold zero means 3,
// negative means "never trip" (failures are still counted); cooldown
// zero derives the default floor of 16 consults.
func NewBreaker(threshold, cooldown int) *Breaker {
	return &Breaker{b: newBreaker(threshold, cooldown, 1)}
}

// Allow reports whether the guarded resource may be used at consult
// sequence n, and whether this use is the half-open probe (the caller
// must report the probe's outcome via OnFailure/OnSuccess with
// probe=true).
func (x *Breaker) Allow(n int64) (allow, probe bool) {
	forcePrecise, probe := x.b.observeBegin(n)
	return !forcePrecise, probe
}

// OnFailure records a failed use observed at consult sequence n and
// reports whether it tripped (or re-opened) the breaker.
func (x *Breaker) OnFailure(n int64, probe bool) (tripped bool) {
	return x.b.onPanic(n, probe)
}

// OnSuccess records a clean use; a successful probe closes the breaker
// and resets the cool-down escalation.
func (x *Breaker) OnSuccess(probe bool) {
	x.b.onSuccess(probe)
}

// Stats snapshots the breaker. ContainedPanics counts every recorded
// failure for a standalone breaker.
func (x *Breaker) Stats() BreakerStats {
	return x.b.stats()
}

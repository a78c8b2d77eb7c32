package core

import (
	"fmt"
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
// failure against a circuit breaker. After three consecutive failures
// the breaker trips: the controller is forced precise and monitoring is
// suspended, so the faulty callback stops running entirely. After a
// cool-down of max(16, 4·SampleInterval) executions the breaker goes
// half-open and lets exactly one monitored probe re-test the callbacks; a
// clean probe closes the breaker, a panicking probe re-opens it with the
// cool-down doubled (the same escalate-on-repeated-failure spirit as
// App's randomized exponential backoff), capped at maxCooldownFactor
// times the base cool-down.
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

// Breaker is the circuit breaker: every controller guards its QoS
// callbacks with one, and the cluster shard client guards each worker
// replica endpoint with one, so a replica that keeps failing (transport
// errors, 5xx, malformed bodies) is isolated exactly the way a panicking
// callback is. The caller supplies the consult sequence number n (a
// controller's execution count, a replica's consult count); the
// cool-down is measured in consults, so an open breaker heals only while
// traffic keeps asking. The closed-state fast path is a single atomic
// load; transitions take b.mu.
type Breaker struct {
	state     atomic.Int32
	failures  atomic.Int64 // consecutive failures
	contained atomic.Int64 // lifetime failures
	trips     atomic.Int64

	mu           sync.Mutex
	baseCooldown int64 // what a closing probe resets cooldown to
	cooldown     int64 // current cool-down (escalates on failed probes)
	openedAt     int64 // consult sequence at the last open
	probeAt      int64 // consult sequence of the in-flight probe
}

// breakerThreshold is the run of consecutive failures that trips a
// breaker. breakerCooldown is a standalone breaker's base cool-down in
// consults; a controller's is ctrlCooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = 16
)

// NewBreaker builds a standalone breaker: it trips after three
// consecutive failures and cools down over 16 consults.
func NewBreaker() *Breaker { return newBreaker(breakerCooldown) }

// newBreaker builds a breaker with the given base cool-down.
func newBreaker(cooldown int64) *Breaker {
	return &Breaker{baseCooldown: cooldown, cooldown: cooldown}
}

// closed is the closed-state fast path, small enough to inline into the
// Execute stage: while it holds, Allow has nothing to say.
func (b *Breaker) closed() bool {
	return BreakerState(b.state.Load()) == BreakerClosed
}

// Allow reports whether the guarded resource may be used at consult
// sequence n — a controller runs a refused execution forced precise with
// monitoring suspended — and whether this use is the half-open probe
// (the caller reports its outcome via OnFailure/OnSuccess with
// probe=true; a controller forces the probe monitored).
func (b *Breaker) Allow(n int64) (allow, probe bool) {
	if b.closed() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // raced closed since the fast-path load
		return true, false
	case BreakerOpen:
		if n-b.openedAt >= b.cooldown {
			b.state.Store(int32(BreakerHalfOpen))
			b.probeAt = n
			return true, true
		}
		return false, false
	default: // BreakerHalfOpen
		// If the in-flight probe's outcome was lost (never reported), the
		// breaker would stay half-open forever; after another cool-down
		// give up on it and launch a fresh probe.
		if n-b.probeAt >= b.cooldown {
			b.probeAt = n
			return true, true
		}
		return false, false
	}
}

// OnFailure records a failure (for a controller, a contained panic)
// observed at consult sequence n and reports whether it tripped (or
// re-opened) the breaker.
func (b *Breaker) OnFailure(n int64, probe bool) (tripped bool) {
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
	if st == BreakerClosed && f >= breakerThreshold {
		b.openedAt = n
		b.state.Store(int32(BreakerOpen))
		b.trips.Add(1)
		return true
	}
	return false
}

// OnSuccess records a clean use (for a controller, a clean monitored
// observation). A successful probe closes the breaker and resets the
// cool-down escalation.
func (b *Breaker) OnSuccess(probe bool) {
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

// reset closes the breaker with a new base cool-down, as a fresh one
// built with it would start; the lifetime tallies (ContainedPanics,
// Trips) keep counting.
func (b *Breaker) reset(cooldown int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.baseCooldown, b.cooldown = cooldown, cooldown
	b.failures.Store(0)
	b.state.Store(int32(BreakerClosed))
}

// Stats snapshots the breaker. ContainedPanics counts every recorded
// failure.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		State:               BreakerState(b.state.Load()),
		ConsecutiveFailures: b.failures.Load(),
		ContainedPanics:     b.contained.Load(),
		Trips:               b.trips.Load(),
	}
}

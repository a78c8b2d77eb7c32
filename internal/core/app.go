package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Unit is one approximated program unit (a Loop or a Func) as seen by the
// global coordinator. Both controller types implement it.
type Unit interface {
	// Name identifies the unit.
	Name() string
	// IncreaseAccuracy / DecreaseAccuracy step the unit's approximation
	// knob one notch and report whether anything changed (false at the
	// ends of the accuracy ladder).
	IncreaseAccuracy() bool
	DecreaseAccuracy() bool
	// Sensitivity estimates, from the unit's local model, the QoS-loss
	// improvement obtained per unit of relative work increase at the
	// current setting. Global recalibration prefers adjusting units with
	// large sensitivity ("a large QoS change produces a small performance
	// change").
	Sensitivity() float64
	// DisableApprox reverts the unit to its precise implementation;
	// ApproxEnabled reports the current state.
	DisableApprox()
	ApproxEnabled() bool
}

// Compile-time checks that both controllers satisfy Unit.
var (
	_ Unit = (*Loop)(nil)
	_ Unit = (*Func)(nil)
)

// AppConfig configures the global coordinator for an application with
// multiple approximations (§3.4).
type AppConfig struct {
	// Name identifies the application.
	Name string
	// SLA is the application-level QoS SLA (the paper's additional
	// application QoS_Compute / QoS SLA pair); it must lie in (0,1].
	SLA float64
	// BackoffThreshold is the number of consecutive low-QoS observations
	// after which the coordinator concludes the approximations interact
	// non-linearly and switches to randomized exponential backoff. Zero
	// means 3.
	BackoffThreshold int
	// MaxBackoffRounds bounds the backoff escalation; past it, all
	// approximations are disabled (the precise program is used). Zero
	// means 6.
	MaxBackoffRounds int
	// Seed seeds the randomized backoff.
	Seed int64
	// RandomRanking replaces the sensitivity ranking with a random unit
	// order. It exists for ablation studies (greenbench -exp
	// ablation-sensitivity) and should stay false in production.
	RandomRanking bool
	// DecreasePatience is the number of consecutive high-QoS
	// observations required before accuracy is given back. The paper's
	// rule acts immediately (patience 1), which is fine for fine-grained
	// knobs like a loop's M but limit-cycles on coarse version ladders
	// (one Taylor degree per step): the step down degrades QoS, the next
	// observation steps back up, and so on. Zero means 1.
	DecreasePatience int
}

// App coordinates recalibration across the approximated units of one
// application, implementing §3.4.2's global recalibration: sensitivity
// ranking while the additive-independence assumption holds, randomized
// exponential backoff (patterned on Ethernet/TCP retransmission backoff,
// the paper's reference [19]) when it does not.
type App struct {
	mu    sync.Mutex
	cfg   AppConfig
	units []Unit
	rng   *rand.Rand

	lowStreak    int
	highStreak   int
	backoffRound int
	disabledAll  bool
	observations int
}

// NewApp creates a coordinator over units, in the order given: the
// sensitivity ranking breaks ties by that order, and the list is fixed
// for the App's lifetime, so no unit can join after operation starts.
func NewApp(cfg AppConfig, units ...Unit) (*App, error) {
	if !(0 < cfg.SLA && cfg.SLA <= 1) {
		return nil, fmt.Errorf("core: app %q: SLA %v outside (0,1]", cfg.Name, cfg.SLA)
	}
	if cfg.BackoffThreshold == 0 {
		cfg.BackoffThreshold = 3
	}
	if cfg.MaxBackoffRounds == 0 {
		cfg.MaxBackoffRounds = 6
	}
	if cfg.DecreasePatience == 0 {
		cfg.DecreasePatience = 1
	}
	return &App{
		cfg:   cfg,
		units: append([]Unit(nil), units...),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// BackoffRound reports the current exponential-backoff escalation round
// (0 while the additive assumption is holding).
func (a *App) BackoffRound() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.backoffRound
}

// AllDisabled reports whether global recalibration has fallen back to the
// fully precise program.
func (a *App) AllDisabled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.disabledAll
}

// ObserveAppQoS drives global recalibration with one measured
// application-level QoS loss (aggregated however the application's
// QoS_Compute defines). Figure 3's band decides the direction:
//
//   - loss within [0.9*SLA, SLA]: nothing to do;
//   - loss above SLA: increase accuracy, choosing the unit whose local
//     model promises the most QoS recovered per work spent; after
//     BackoffThreshold consecutive failures, escalate to randomized
//     exponential backoff — each round adjusts a randomly chosen,
//     doubling-size subset of units by random amounts, and after
//     MaxBackoffRounds all approximation is disabled;
//   - loss below 0.9*SLA: decrease accuracy of the unit with the
//     smallest sensitivity (cheapest QoS give-back for the most work
//     saved).
func (a *App) ObserveAppQoS(loss float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observations++
	switch band(loss, a.cfg.SLA) {
	case ActIncrease:
		a.lowStreak++
		a.highStreak = 0
		if a.lowStreak > a.cfg.BackoffThreshold {
			a.backoffLocked()
			return
		}
		a.increaseBestLocked()
	case ActDecrease:
		a.lowStreak = 0
		a.backoffRound = 0
		a.highStreak++
		if a.highStreak >= a.cfg.DecreasePatience {
			a.highStreak = 0
			a.decreaseWorstLocked()
		}
	default:
		a.lowStreak = 0
		a.highStreak = 0
		a.backoffRound = 0
	}
}

// rankedLocked returns unit indices sorted by descending sensitivity
// (or randomly permuted under the ablation switch).
func (a *App) rankedLocked() []int {
	if a.cfg.RandomRanking {
		return a.rng.Perm(len(a.units))
	}
	idx := make([]int, len(a.units))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return a.units[idx[x]].Sensitivity() > a.units[idx[y]].Sensitivity()
	})
	return idx
}

func (a *App) increaseBestLocked() {
	for _, i := range a.rankedLocked() {
		if a.units[i].IncreaseAccuracy() {
			return
		}
	}
	// No unit could move: only precision left is disabling.
	a.backoffLocked()
}

func (a *App) decreaseWorstLocked() {
	if a.disabledAll {
		return // stay precise once globally disabled; re-enable is manual
	}
	ranked := a.rankedLocked()
	for i := len(ranked) - 1; i >= 0; i-- {
		if a.units[ranked[i]].DecreaseAccuracy() {
			return
		}
	}
}

// backoffLocked runs one round of the randomized exponential backoff of
// §3.4.2: in round r it picks min(2^r, len(units)) random units and
// applies 1..2^r random accuracy increases to each; past MaxBackoffRounds
// it disables all approximation.
func (a *App) backoffLocked() {
	a.backoffRound++
	if a.backoffRound > a.cfg.MaxBackoffRounds {
		for _, u := range a.units {
			u.DisableApprox()
		}
		a.disabledAll = true
		return
	}
	span := 1 << uint(a.backoffRound)
	nUnits := span
	if nUnits > len(a.units) {
		nUnits = len(a.units)
	}
	perm := a.rng.Perm(len(a.units))
	for _, i := range perm[:nUnits] {
		steps := 1 + a.rng.Intn(span)
		for s := 0; s < steps; s++ {
			if !a.units[i].IncreaseAccuracy() {
				break
			}
		}
	}
}

// Observations returns the number of app-level QoS observations seen.
func (a *App) Observations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.observations
}

// Package energy simulates the whole-system energy instrumentation the
// paper used for its evaluation (a device sampling current and voltage on
// the main power cable once per second).
//
// Because this reproduction runs on simulated substrates rather than the
// authors' testbed, executions are measured in abstract *work units*
// (documents scored, rays traced, GA generations, polynomial terms
// evaluated, ...). A CostModel converts accumulated work units into
//
//   - simulated execution time:  T = FixedSeconds·ops + Σ units(c)·UnitSeconds(c)
//   - simulated energy:          E = IdleWatts·T + FixedJoules·ops
//   - Σ units(c)·UnitJoules(c)
//
// which reproduces exactly the relation the paper's measurements express:
// a static (idle) power draw integrated over the run plus a dynamic part
// proportional to the work performed. Approximation reduces work units,
// which shrinks both time and energy — with ratios that differ, as in the
// paper, because the fixed per-operation overheads do not shrink.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Account accumulates the work performed by one run (one query, one frame,
// one full experiment — the granularity is the caller's choice).
type Account struct {
	units map[string]float64
	ops   float64
}

// NewAccount returns an empty account.
func NewAccount() *Account {
	return &Account{units: make(map[string]float64)}
}

// Add records n units of work of the given class. Negative n is rejected.
func (a *Account) Add(class string, n float64) {
	if n < 0 {
		panic(fmt.Sprintf("energy: negative work %v for class %q", n, class))
	}
	a.units[class] += n
}

// AddOp records the completion of one top-level operation (e.g. one
// query). Per-op fixed costs in the CostModel are multiplied by the op
// count.
func (a *Account) AddOp() { a.ops++ }

// Classes returns the work classes recorded, sorted for deterministic
// iteration.
func (a *Account) Classes() []string {
	cs := make([]string, 0, len(a.units))
	for c := range a.units {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return cs
}

// String renders the account compactly for logs.
func (a *Account) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%.0f", a.ops)
	for _, c := range a.Classes() {
		fmt.Fprintf(&b, " %s=%.0f", c, a.units[c])
	}
	return b.String()
}

// CostModel converts work units into simulated seconds and joules.
type CostModel struct {
	// IdleWatts is the static whole-system power draw, integrated over the
	// simulated run time.
	IdleWatts float64
	// FixedSeconds and FixedJoules are charged once per top-level
	// operation (request parsing, dispatch, I/O...). They are the part of
	// the cost that approximation cannot remove.
	FixedSeconds float64
	FixedJoules  float64
	// UnitSeconds and UnitJoules are the per-work-unit simulated time and
	// dynamic energy for each work class.
	UnitSeconds map[string]float64
	UnitJoules  map[string]float64
}

// Report is the simulated measurement of one run.
type Report struct {
	Seconds float64 // simulated execution time
	Joules  float64 // simulated total system energy
	Ops     float64 // top-level operations completed
}

// Throughput returns operations per simulated second (the paper's QPS for
// search). It returns 0 for a zero-duration run.
func (r Report) Throughput() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.Ops / r.Seconds
}

// JoulesPerOp returns energy per operation (the paper's Joules/query).
// It returns 0 when no operations were recorded.
func (r Report) JoulesPerOp() float64 {
	if r.Ops <= 0 {
		return 0
	}
	return r.Joules / r.Ops
}

// Evaluate converts an account into a simulated time/energy report.
func (m *CostModel) Evaluate(a *Account) Report {
	secs := m.FixedSeconds * a.ops
	dyn := m.FixedJoules * a.ops
	for c, n := range a.units {
		secs += n * m.UnitSeconds[c]
		dyn += n * m.UnitJoules[c]
	}
	return Report{
		Seconds: secs,
		Joules:  m.IdleWatts*secs + dyn,
		Ops:     a.ops,
	}
}

package core

import (
	"fmt"
	"math"
	"testing"
)

// stubUnit is a controllable Unit: an accuracy ladder 0..max with a
// sensitivity script.
type stubUnit struct {
	name        string
	level, max  int
	sensitivity float64
	disabled    bool
	increases   int
	decreases   int
}

func (u *stubUnit) Name() string { return u.name }
func (u *stubUnit) IncreaseAccuracy() bool {
	u.increases++
	if u.level >= u.max {
		return false
	}
	u.level++
	return true
}
func (u *stubUnit) DecreaseAccuracy() bool {
	u.decreases++
	if u.level <= 0 {
		return false
	}
	u.level--
	return true
}
func (u *stubUnit) Sensitivity() float64 { return u.sensitivity }
func (u *stubUnit) DisableApprox()       { u.disabled = true }
func (u *stubUnit) ApproxEnabled() bool  { return !u.disabled }

func newTestApp(t *testing.T, units ...*stubUnit) *App {
	t.Helper()
	us := make([]Unit, len(units))
	for i, u := range units {
		us[i] = u
	}
	a, err := NewApp(AppConfig{Name: "app", SLA: 0.02, Seed: 42}, us...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAppErrors(t *testing.T) {
	if _, err := NewApp(AppConfig{SLA: -1}); err == nil {
		t.Error("negative SLA accepted")
	}
	if _, err := NewApp(AppConfig{SLA: math.NaN()}); err == nil {
		t.Error("NaN SLA accepted")
	}
}

func TestAppInBandDoesNothing(t *testing.T) {
	u := &stubUnit{name: "u", level: 3, max: 10, sensitivity: 1}
	a := newTestApp(t, u)
	a.ObserveAppQoS(0.019) // in [0.018, 0.02]
	if u.level != 3 {
		t.Errorf("level changed to %d on in-band QoS", u.level)
	}
	if a.Observations() != 1 {
		t.Errorf("observations = %d", a.Observations())
	}
}

func TestAppLowQoSIncreasesMostSensitiveUnit(t *testing.T) {
	hot := &stubUnit{name: "hot", level: 0, max: 10, sensitivity: 5}
	cold := &stubUnit{name: "cold", level: 0, max: 10, sensitivity: 1}
	a := newTestApp(t, cold, hot)
	a.ObserveAppQoS(0.5)
	if hot.level != 1 {
		t.Errorf("hot unit level = %d, want 1", hot.level)
	}
	if cold.level != 0 {
		t.Errorf("cold unit level = %d, want 0 (untouched)", cold.level)
	}
}

func TestAppHighQoSDecreasesLeastSensitiveUnit(t *testing.T) {
	hot := &stubUnit{name: "hot", level: 5, max: 10, sensitivity: 5}
	cold := &stubUnit{name: "cold", level: 5, max: 10, sensitivity: 1}
	a := newTestApp(t, cold, hot)
	a.ObserveAppQoS(0.001)
	if cold.level != 4 {
		t.Errorf("cold unit level = %d, want 4", cold.level)
	}
	if hot.level != 5 {
		t.Errorf("hot unit level = %d, want 5 (untouched)", hot.level)
	}
}

func TestAppBackoffAfterPersistentLowQoS(t *testing.T) {
	u1 := &stubUnit{name: "u1", level: 0, max: 100, sensitivity: 1}
	u2 := &stubUnit{name: "u2", level: 0, max: 100, sensitivity: 2}
	a := newTestApp(t, u1, u2)
	// BackoffThreshold defaults to 3: the first three low observations
	// use sensitivity ranking; later ones escalate.
	for i := 0; i < 5; i++ {
		a.ObserveAppQoS(0.5)
	}
	if a.BackoffRound() == 0 {
		t.Fatal("backoff never engaged despite persistent low QoS")
	}
	if u1.level+u2.level <= 4 {
		t.Errorf("backoff rounds did not escalate accuracy: levels %d+%d",
			u1.level, u2.level)
	}
}

func TestAppBackoffDisablesEverythingEventually(t *testing.T) {
	u := &stubUnit{name: "u", level: 0, max: 1000000, sensitivity: 1}
	a, err := NewApp(AppConfig{SLA: 0.02, MaxBackoffRounds: 2, Seed: 1}, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !a.AllDisabled(); i++ {
		a.ObserveAppQoS(1.0)
	}
	if !a.AllDisabled() {
		t.Fatal("app never disabled approximations")
	}
	if u.ApproxEnabled() {
		t.Error("unit still enabled after global disable")
	}
}

func TestAppRecoveryResetsBackoff(t *testing.T) {
	u := &stubUnit{name: "u", level: 0, max: 100, sensitivity: 1}
	a := newTestApp(t, u)
	for i := 0; i < 5; i++ {
		a.ObserveAppQoS(0.5)
	}
	if a.BackoffRound() == 0 {
		t.Fatal("precondition: backoff should be engaged")
	}
	a.ObserveAppQoS(0.019) // back in band
	if a.BackoffRound() != 0 {
		t.Errorf("backoff round = %d after recovery, want 0", a.BackoffRound())
	}
}

func TestAppLaddersSaturate(t *testing.T) {
	// A unit already at max accuracy: low QoS pushes into backoff and
	// finally disables.
	u := &stubUnit{name: "u", level: 3, max: 3, sensitivity: 1}
	a, err := NewApp(AppConfig{SLA: 0.02, MaxBackoffRounds: 1, Seed: 1}, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && !a.AllDisabled(); i++ {
		a.ObserveAppQoS(1.0)
	}
	if !a.AllDisabled() {
		t.Error("saturated ladder should lead to global disable")
	}
}

// TestAppBackoffEscalationCappedAtMaxRounds pins the escalation ceiling:
// once the backoff round passes MaxBackoffRounds every unit is disabled,
// and further low-QoS observations keep the app in that terminal state —
// disabled stays disabled, no unit is adjusted again, and nothing panics.
func TestAppBackoffEscalationCappedAtMaxRounds(t *testing.T) {
	u1 := &stubUnit{name: "u1", level: 0, max: 1 << 30, sensitivity: 1}
	u2 := &stubUnit{name: "u2", level: 0, max: 1 << 30, sensitivity: 2}
	a, err := NewApp(AppConfig{Name: "app", SLA: 0.02, MaxBackoffRounds: 3, Seed: 7}, u1, u2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.ObserveAppQoS(1.0)
	}
	if !a.AllDisabled() {
		t.Fatal("app never disabled despite unbounded low QoS")
	}
	if u1.ApproxEnabled() || u2.ApproxEnabled() {
		t.Error("units still enabled after global disable")
	}
	// Terminal state is stable under continued pressure: the accuracy
	// ladders must not keep climbing once everything is disabled.
	inc1, inc2 := u1.increases, u2.increases
	for i := 0; i < 10; i++ {
		a.ObserveAppQoS(1.0)
	}
	if !a.AllDisabled() {
		t.Error("disabled state did not stick under continued low QoS")
	}
	if u1.increases != inc1 || u2.increases != inc2 {
		t.Errorf("units adjusted after global disable: %d->%d, %d->%d",
			inc1, u1.increases, inc2, u2.increases)
	}
}

// TestAppBackoffRoundResetsWhenQoSRecovers covers both recovery branches:
// a loss back inside the [0.9*SLA, SLA] band and a loss below
// the band both clear backoffRound, and a fresh low-QoS episode must
// climb through BackoffThreshold sensitivity-ranked adjustments again
// before backoff re-engages.
func TestAppBackoffRoundResetsWhenQoSRecovers(t *testing.T) {
	for _, recovery := range []struct {
		name string
		loss float64
	}{
		{"in-band", 0.019},      // within [0.018, 0.02]
		{"below-band", 0.001},   // under 0.9*SLA: also decreases
		{"at-zero-loss", 0.000}, // fully precise-looking QoS
	} {
		t.Run(recovery.name, func(t *testing.T) {
			u := &stubUnit{name: "u", level: 0, max: 100, sensitivity: 1}
			a := newTestApp(t, u)
			for i := 0; i < 6; i++ {
				a.ObserveAppQoS(0.5)
			}
			if a.BackoffRound() == 0 {
				t.Fatal("precondition: backoff engaged")
			}
			a.ObserveAppQoS(recovery.loss)
			if got := a.BackoffRound(); got != 0 {
				t.Fatalf("backoff round = %d after recovery, want 0", got)
			}
			// A new low-QoS episode starts from scratch: the first
			// BackoffThreshold (3) observations use sensitivity ranking
			// (one increase each), only later ones escalate.
			before := u.increases
			for i := 0; i < 3; i++ {
				a.ObserveAppQoS(0.5)
			}
			if a.BackoffRound() != 0 {
				t.Error("backoff re-engaged before the threshold was re-crossed")
			}
			if got := u.increases - before; got != 3 {
				t.Errorf("ranked increases after recovery = %d, want 3", got)
			}
		})
	}
}

// End-to-end: a synthetic application whose two approximations interact
// non-linearly (the paper's §3.4.2 validation scenario — they constructed
// artificial examples because benchmarks never showed the effect).
// QoS loss is additive below a threshold but explodes when both units are
// too approximate simultaneously. The coordinator must converge to a
// configuration meeting the SLA.
func TestAppConvergesOnNonLinearInteraction(t *testing.T) {
	u1 := &stubUnit{name: "u1", level: 0, max: 10, sensitivity: 2}
	u2 := &stubUnit{name: "u2", level: 0, max: 10, sensitivity: 1}
	a := newTestApp(t, u1, u2)

	appLoss := func() float64 {
		// Per-unit loss decays with accuracy level.
		l1 := 0.02 / float64(1+u1.level)
		l2 := 0.02 / float64(1+u2.level)
		loss := l1 + l2
		// Non-linear interaction: both very approximate -> superadditive.
		if u1.level < 2 && u2.level < 2 {
			loss *= 4
		}
		return loss
	}
	converged := false
	for i := 0; i < 100; i++ {
		loss := appLoss()
		if loss <= 0.02 {
			converged = true
			break
		}
		a.ObserveAppQoS(loss)
	}
	if !converged {
		t.Fatalf("never converged: levels %d/%d loss %v disabled=%v",
			u1.level, u2.level, appLoss(), a.AllDisabled())
	}
}

func TestAppDecreasePatience(t *testing.T) {
	u := &stubUnit{name: "u", level: 5, max: 10, sensitivity: 1}
	a, err := NewApp(AppConfig{SLA: 0.02, Seed: 1, DecreasePatience: 3}, u)
	if err != nil {
		t.Fatal(err)
	}
	// Two high-QoS observations: no decrease yet.
	a.ObserveAppQoS(0.001)
	a.ObserveAppQoS(0.001)
	if u.level != 5 {
		t.Fatalf("level = %d before patience expired", u.level)
	}
	// Third consecutive: decrease fires once and the streak resets.
	a.ObserveAppQoS(0.001)
	if u.level != 4 {
		t.Fatalf("level = %d after patience expired, want 4", u.level)
	}
	a.ObserveAppQoS(0.001)
	if u.level != 4 {
		t.Fatalf("level = %d, streak should have reset", u.level)
	}
	// An in-band observation resets the streak.
	a.ObserveAppQoS(0.001)
	a.ObserveAppQoS(0.019) // in band
	a.ObserveAppQoS(0.001)
	a.ObserveAppQoS(0.001)
	if u.level != 4 {
		t.Fatalf("level = %d, in-band observation should reset patience", u.level)
	}
}

func TestCombineSearchPicksFastestMeetingSLA(t *testing.T) {
	candidates := [][]Setting{
		{ // unit 0: three loop levels
			{Unit: 0, Label: "M=N", PredLoss: 0.01, Speedup: 3},
			{Unit: 0, Label: "M=2N", PredLoss: 0.005, Speedup: 2},
			{Unit: 0, Label: "precise", PredLoss: 0, Speedup: 1},
		},
		{ // unit 1: two function versions
			{Unit: 1, Label: "f(3)", PredLoss: 0.012, Speedup: 2},
			{Unit: 1, Label: "f(4)", PredLoss: 0.004, Speedup: 1.5},
		},
	}
	// Measured evaluator: additive losses, work-balanced speedup.
	eval := func(combo []Setting) (float64, float64, error) {
		loss, speed := 0.0, 0.0
		for _, s := range combo {
			loss += s.PredLoss
			speed += 1 / s.Speedup
		}
		return loss, float64(len(combo)) / speed, nil
	}
	res, err := CombineSearch(candidates, 0.015, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 6 {
		t.Errorf("evaluated %d combos, want 6", res.Evaluated)
	}
	// Best viable: M=N (0.01) + f(4) (0.004) = 0.014 <= 0.015.
	// M=N + f(3) = 0.022 fails.
	if res.Best[0].Label != "M=N" || res.Best[1].Label != "f(4)" {
		t.Errorf("best combo = %s + %s, want M=N + f(4)",
			res.Best[0].Label, res.Best[1].Label)
	}
	if res.Loss > 0.015 {
		t.Errorf("winning loss %v exceeds SLA", res.Loss)
	}
}

// The paper's blackscholes anecdote: the local best log choice (log(2))
// must be refined to log(4) when combined with exp(cb) to meet the app
// SLA.
func TestCombineSearchRefinesLocalChoice(t *testing.T) {
	candidates := [][]Setting{
		{
			{Unit: 0, Label: "exp(cb)", PredLoss: 0.006, Speedup: 3},
			{Unit: 0, Label: "precise-exp", PredLoss: 0, Speedup: 1},
		},
		{
			{Unit: 1, Label: "log(2)", PredLoss: 0.007, Speedup: 4},
			{Unit: 1, Label: "log(4)", PredLoss: 0.002, Speedup: 2.5},
			{Unit: 1, Label: "precise-log", PredLoss: 0, Speedup: 1},
		},
	}
	eval := func(combo []Setting) (float64, float64, error) {
		loss, speed := 0.0, 0.0
		for _, s := range combo {
			loss += s.PredLoss
			speed += 1 / s.Speedup
		}
		return loss, float64(len(combo)) / speed, nil
	}
	res, err := CombineSearch(candidates, 0.01, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0].Label != "exp(cb)" || res.Best[1].Label != "log(4)" {
		t.Errorf("best = %s + %s, want exp(cb) + log(4)",
			res.Best[0].Label, res.Best[1].Label)
	}
}

func TestCombineSearchNoViableCombo(t *testing.T) {
	candidates := [][]Setting{
		{{Unit: 0, Label: "bad", PredLoss: 0.5, Speedup: 10}},
	}
	_, err := CombineSearch(candidates, 0.01, nil)
	if err != ErrNoViableCombo {
		t.Errorf("err = %v, want ErrNoViableCombo", err)
	}
}

func TestCombineSearchInputValidation(t *testing.T) {
	if _, err := CombineSearch(nil, 0.01, nil); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := CombineSearch([][]Setting{{}}, 0.01, nil); err == nil {
		t.Error("empty unit candidate list accepted")
	}
}

func TestCombineSearchEvalErrorPropagates(t *testing.T) {
	candidates := [][]Setting{{{Unit: 0, Label: "x"}}}
	wantErr := fmt.Errorf("boom")
	_, err := CombineSearch(candidates, 1, func([]Setting) (float64, float64, error) {
		return 0, 0, wantErr
	})
	if err != wantErr {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestAdditiveEstimate(t *testing.T) {
	loss, speedup, err := AdditiveEstimate([]Setting{
		{PredLoss: 0.01, Speedup: 2},
		{PredLoss: 0.02, Speedup: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0.03 {
		t.Errorf("loss = %v, want 0.03", loss)
	}
	// Equal shares, both 2x: combined speedup 2.
	if speedup != 2 {
		t.Errorf("speedup = %v, want 2", speedup)
	}
	// Weighted shares: unit 0 dominates the work.
	loss, speedup, err = AdditiveEstimate([]Setting{
		{PredLoss: 0, Speedup: 2, WorkShare: 0.9},
		{PredLoss: 0, Speedup: 1, WorkShare: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (0.9/2 + 0.1/1)
	if diff := speedup - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weighted speedup = %v, want %v", speedup, want)
	}
	_ = loss
	// Empty combo.
	if l, s, _ := AdditiveEstimate(nil); l != 0 || s != 1 {
		t.Errorf("empty estimate = (%v, %v)", l, s)
	}
	// Zero speedup treated as 1.
	if _, s, _ := AdditiveEstimate([]Setting{{Speedup: 0}}); s != 1 {
		t.Errorf("zero-speedup estimate = %v, want 1", s)
	}
}

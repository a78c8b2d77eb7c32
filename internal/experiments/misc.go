package experiments

import (
	"fmt"
	"math"
	"time"

	"green/internal/core"
	"green/internal/model"
	"green/internal/workload"
)

func init() {
	register("overhead", "Green runtime overhead with approximation forced off (§4.1)", runOverhead)
	register("backoff", "global recalibration under non-linear interaction (§3.4.2)", runBackoff)
}

// runOverhead reproduces the §4.1 measurement: with every QoS_Approx call
// answering "do not approximate" and a 1% recalibration sampling rate,
// the Green-instrumented loop should be indistinguishable from the plain
// loop. It measures real wall time of both variants over identical work,
// alternating them and reporting the ratio of each one's fastest round.
func runOverhead(o Options) (*Table, error) {
	const base = 2000
	iterations := o.scaled(300, 30)

	// The measured body: a numeric kernel of realistic weight — Green
	// targets *expensive* loops, where the per-iteration decision check
	// is negligible relative to the body.
	body := func(i int, acc float64) float64 {
		x := float64(i%97)*1e-3 + 1.1
		for k := 0; k < 8; k++ {
			x = math.Sqrt(x*x + acc*1e-9 + float64(k))
		}
		return acc + x
	}

	plainRun := func() (time.Duration, float64) {
		start := time.Now() //greenlint:ignore nondet the experiment's purpose is measuring real wall-clock overhead
		sink := 0.0
		for run := 0; run < iterations; run++ {
			for i := 0; i < base; i++ {
				sink = body(i, sink)
			}
		}
		return time.Since(start), sink //greenlint:ignore nondet the experiment's purpose is measuring real wall-clock overhead
	}

	// Green-instrumented version, approximation disabled, Sample_QoS 1%.
	pts := []model.CalPoint{
		{Level: base / 4, QoSLoss: 0.1, Work: base / 4},
		{Level: base / 2, QoSLoss: 0.01, Work: base / 2},
	}
	m, err := model.BuildLoopModel("overhead", pts, base, base)
	if err != nil {
		return nil, err
	}
	loop, err := core.NewLoop(core.LoopConfig{
		Name: "overhead", Model: m, SLA: 0.02,
		SampleInterval: 100, Disabled: true,
	})
	if err != nil {
		return nil, err
	}
	greenRun := func() (time.Duration, float64, error) {
		start := time.Now() //greenlint:ignore nondet the experiment's purpose is measuring real wall-clock overhead
		sink := 0.0
		for run := 0; run < iterations; run++ {
			exec, err := loop.Begin(noopQoS{})
			if err != nil {
				return 0, 0, err
			}
			i := 0
			for ; i < base && exec.Continue(i); i++ {
				sink = body(i, sink)
			}
			exec.Finish(i)
		}
		return time.Since(start), sink, nil //greenlint:ignore nondet the experiment's purpose is measuring real wall-clock overhead
	}

	// A single timing of each variant is at the mercy of whatever else
	// the machine does in those milliseconds (1.105 was read against the
	// test's 1.10 limit under the parallel suite). Alternating the two
	// exposes both to the same disturbances, and the fastest round of
	// each is the one least disturbed.
	const rounds = 5
	var plain, green time.Duration
	for round := 0; round < rounds; round++ {
		p, sinkPlain := plainRun()
		g, sinkGreen, err := greenRun()
		if err != nil {
			return nil, err
		}
		if sinkPlain != sinkGreen {
			return nil, fmt.Errorf("overhead experiment diverged: %v vs %v", sinkPlain, sinkGreen)
		}
		if round == 0 || p < plain {
			plain = p
		}
		if round == 0 || g < green {
			green = g
		}
	}
	ratio := float64(green) / float64(plain)
	t := &Table{Columns: []string{"variant", "wall time", "relative"}}
	t.AddRow("plain loop", plain.Round(time.Microsecond).String(), "1.000")
	t.AddRow("green (approx off, 1% sampling)", green.Round(time.Microsecond).String(),
		fmt.Sprintf("%.3f", ratio))
	t.AddNote("paper: performance indistinguishable from base at 1%% sampling")
	t.AddNote("fastest of %d alternated rounds, each %d runs of a %d-iteration kernel; identical results verified", rounds, iterations, base)
	return t, nil
}

// noopQoS is a trivial LoopQoS for the disabled-approximation loop.
type noopQoS struct{}

func (noopQoS) Record(int)        {}
func (noopQoS) Loss(int) float64  { return 0 }
func (noopQoS) Delta(int) float64 { return 0 }

// runBackoff reproduces the §3.4.2 validation: the paper could not force
// non-linear interaction in its benchmarks, so it constructed artificial
// examples — as we do here. Two approximated loops contribute additive
// QoS loss individually, but when both are very approximate at once the
// combined loss explodes (superadditive interaction). Global
// recalibration must escalate through randomized exponential backoff and
// converge to a configuration meeting the application SLA.
func runBackoff(o Options) (*Table, error) {
	const appSLA = 0.02
	mk := func(name string, seed int64) (*core.Loop, error) {
		pts := []model.CalPoint{
			{Level: 100, QoSLoss: 0.020, Work: 100},
			{Level: 200, QoSLoss: 0.010, Work: 200},
			{Level: 400, QoSLoss: 0.005, Work: 400},
			{Level: 800, QoSLoss: 0.002, Work: 800},
		}
		m, err := model.BuildLoopModel(name, pts, 1600, 1600)
		if err != nil {
			return nil, err
		}
		return core.NewLoop(core.LoopConfig{Name: name, Model: m, SLA: 0.02, Step: 100})
	}
	l1, err := mk("unit1", 1)
	if err != nil {
		return nil, err
	}
	l2, err := mk("unit2", 2)
	if err != nil {
		return nil, err
	}
	app, err := core.NewApp(core.AppConfig{
		Name: "synthetic", SLA: appSLA, Seed: workload.Split(o.Seed, 800),
		BackoffThreshold: 2, MaxBackoffRounds: 8,
	}, l1, l2)
	if err != nil {
		return nil, err
	}

	// Ground truth: per-unit loss follows the model curve; the
	// interaction quadruples the loss when both levels are low.
	measured := func() float64 {
		loss := 0.0
		for _, l := range []*core.Loop{l1, l2} {
			if l.ApproxEnabled() {
				loss += lossAtLevel(l.Level())
			}
		}
		if l1.ApproxEnabled() && l2.ApproxEnabled() &&
			l1.Level() < 250 && l2.Level() < 250 {
			loss *= 4 // the constructed non-linear effect
		}
		return loss
	}

	t := &Table{Columns: []string{"observation", "unit1 M", "unit2 M", "measured app QoS loss", "backoff round"}}
	converged := -1
	for obs := 1; obs <= 40; obs++ {
		loss := measured()
		t.AddRow(fmt.Sprintf("%d", obs),
			fmt.Sprintf("%.0f", l1.Level()), fmt.Sprintf("%.0f", l2.Level()),
			pct(loss), fmt.Sprintf("%d", app.BackoffRound()))
		if loss <= appSLA {
			converged = obs
			break
		}
		app.ObserveAppQoS(loss)
	}
	if converged > 0 {
		t.AddNote("converged to the %.0f%% application SLA after %d observations", appSLA*100, converged)
	} else {
		t.AddNote("did not converge in 40 observations (approximation disabled: %v)", app.AllDisabled())
	}
	return t, nil
}

// lossAtLevel is the synthetic per-unit loss curve used by runBackoff.
func lossAtLevel(level float64) float64 {
	return math.Min(0.04, 2.0/level)
}

package experiments

import (
	"fmt"
	"math"
	"sort"

	"green/internal/core"
	"green/internal/model"
	"green/internal/workload"
)

// Ablation experiments isolate the design choices DESIGN.md calls out:
// the monotone calibration envelope, the windowed recalibration policy
// for 0/1 QoS metrics, adaptive vs static loop termination, and
// sensitivity-ranked global recalibration.

func init() {
	register("ablation-envelope", "model inversion with vs without the monotone envelope on noisy calibration data", runAblationEnvelope)
	register("ablation-policy", "default vs windowed recalibration on a 0/1 QoS metric", runAblationPolicy)
	register("ablation-adaptive", "adaptive vs static loop termination at matched QoS", runAblationAdaptive)
	register("ablation-sensitivity", "sensitivity-ranked vs random global recalibration", runAblationSensitivity)
}

// runAblationEnvelope: the true loss curve decays smoothly, calibration
// observes it with noise. Inverting the raw interpolated curve can pick a
// level inside a noise dip whose *true* loss violates the SLA; the
// monotone envelope is conservative. Measured over many random trials.
func runAblationEnvelope(o Options) (*Table, error) {
	const sla = 0.02
	trueLoss := func(level float64) float64 { return 2.0 / level }
	trials := o.scaled(2000, 100)
	rng := workload.NewRand(workload.Split(o.Seed, 900))

	levels := []float64{25, 50, 75, 100, 150, 200, 300, 400}
	var violEnv, violRaw int
	var sumEnv, sumRaw float64
	for trial := 0; trial < trials; trial++ {
		pts := make([]model.CalPoint, len(levels))
		for i, l := range levels {
			noise := 1 + 0.35*rng.NormFloat64()
			if noise < 0.05 {
				noise = 0.05
			}
			pts[i] = model.CalPoint{Level: l, QoSLoss: trueLoss(l) * noise, Work: l}
		}
		m, err := model.BuildLoopModel("abl", pts, 1000, 1000)
		if err != nil {
			return nil, err
		}
		// Envelope-based inversion (the production path).
		if lvl, err := m.StaticParams(sla); err == nil {
			t := trueLoss(lvl)
			sumEnv += t
			if t > sla {
				violEnv++
			}
		} else {
			// Unsatisfiable: precise fallback, loss 0 — never a violation.
			sumEnv += 0
		}
		// Raw inversion: the leftmost point where the *raw* noisy curve
		// (piecewise-linear, no monotone smoothing) crosses below the
		// SLA. A noise dip early in the curve gets picked even though
		// later observations bounce back above the SLA — exactly the
		// failure mode the envelope removes.
		rawLvl := math.NaN()
		for i, p := range pts {
			if p.QoSLoss <= sla {
				if i == 0 {
					rawLvl = p.Level
				} else {
					prev := pts[i-1]
					frac := (prev.QoSLoss - sla) / (prev.QoSLoss - p.QoSLoss)
					rawLvl = prev.Level + frac*(p.Level-prev.Level)
				}
				break
			}
		}
		if !math.IsNaN(rawLvl) {
			t := trueLoss(rawLvl)
			sumRaw += t
			if t > sla {
				violRaw++
			}
		}
	}
	t := &Table{Columns: []string{"inversion", "SLA violation rate", "mean true loss at chosen M"}}
	t.AddRow("monotone envelope (Green)",
		pct(float64(violEnv)/float64(trials)), pct(sumEnv/float64(trials)))
	t.AddRow("raw noisy curve",
		pct(float64(violRaw)/float64(trials)), pct(sumRaw/float64(trials)))
	t.AddNote("true loss 2/M, observations multiplied by lognormal-ish noise; SLA %.0f%%; %d trials",
		sla*100, trials)
	t.AddNote("each trial uses a single noisy calibration run; production calibration averages many runs, shrinking both rates — the comparison isolates the envelope's effect")
	return t, nil
}

// runAblationPolicy: the Bing QoS metric is 0/1 per query, so Figure 3's
// per-observation policy (a window of one) sees only extremes: it
// ratchets the level down on every perfect query and up on every changed
// one, oscillating violently. The windowed policy aggregates 100 queries
// before acting.
func runAblationPolicy(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	m, err := f.loopModel(f.calQueries)
	if err != nil {
		return nil, err
	}
	const sla = 0.02
	step := 0.1 * float64(f.refN)

	type variant struct {
		name   string
		policy core.RecalibratePolicy
	}
	variants := []variant{
		{"default (per-query)", &core.WindowedPolicy{Window: 1}},
		{"windowed (Figure 9)", &core.WindowedPolicy{Window: 100}},
	}
	t := &Table{Columns: []string{"policy", "level changes per 100 queries", "final M (xN)", "measured loss"}}
	for _, v := range variants {
		loop, err := core.NewLoop(core.LoopConfig{
			Name: "abl.policy", Model: m, SLA: sla,
			SampleInterval: 50, Policy: v.policy, Step: step, MinLevel: 1,
		})
		if err != nil {
			return nil, err
		}
		queries := f.tstQueries
		nQ := min(len(queries), o.scaled(4000, 400))
		levelChanges := 0
		prevLevel := loop.Level()
		bad := 0
		for i := 0; i < nQ; i++ {
			q := queries[i%len(queries)]
			if _, err := f.serve(loop, q); err != nil {
				return nil, err
			}
			if loop.Level() != prevLevel {
				levelChanges++
				prevLevel = loop.Level()
			}
			// Measure the loss this configuration would produce.
			var loss, work [1]float64
			f.measure(q, []float64{loop.Level()}, 0, loss[:], work[:])
			bad += int(loss[0])
		}
		t.AddRow(v.name,
			fmt.Sprintf("%.1f", 100*float64(levelChanges)/float64(nQ)),
			fmt.Sprintf("%.1f", loop.Level()/float64(f.refN)),
			pct(float64(bad)/float64(nQ)))
	}
	t.AddNote("0/1 per-query QoS: the default rule reacts to every monitored query, the windowed rule to 100-query aggregates")
	return t, nil
}

// runAblationAdaptive compares the adaptive M-PRO termination against the
// static-M sweep at matched QoS: for the loss the adaptive version
// achieves, how much work does the equivalent static version need?
func runAblationAdaptive(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	mults := []float64{0.5, 0.75, 1, 1.5, 2, 3, 4}
	names := make([]string, len(mults), len(mults)+1)
	caps := make([]float64, len(mults))
	for i, mult := range mults {
		names[i], caps[i] = fmt.Sprintf("M=%.2gN (static)", mult), mult*float64(f.refN)
	}
	sw, err := f.sweep(f.tstQueries, append(names, "M-PRO-0.5N (adaptive)"), caps, f.refN/2)
	if err != nil {
		return nil, err
	}
	losses := sw.means()
	reps, _ := sw.reports(f.cost, "doc")
	adLoss, adRep := losses[len(mults)], reps[len(mults)]

	t := &Table{Columns: []string{"version", "QoS loss", "time (norm., adaptive = 100)"}}
	t.AddRow(sw.names[len(mults)], pct(adLoss), "100.0")
	// Static sweep: find the smallest static M with loss <= adaptive's.
	matched := false
	for i, mult := range mults {
		t.AddRow(sw.names[i], pct(losses[i]), norm(reps[i].Seconds/adRep.Seconds))
		if !matched && losses[i] <= adLoss {
			t.AddNote("first static version matching adaptive QoS: M=%.2gN, using %.0f%% of adaptive's time",
				mult, 100*reps[i].Seconds/adRep.Seconds)
			matched = true
		}
	}
	if !matched {
		t.AddNote("no static version in the sweep matched adaptive QoS")
	}
	return t, nil
}

// runAblationSensitivity compares sensitivity-ranked global recalibration
// against a random unit order: observations needed to recover an
// application whose QoS violates the SLA because one highly sensitive
// unit is too approximate.
func runAblationSensitivity(o Options) (*Table, error) {
	trials := o.scaled(200, 20)
	convergence := func(random bool) ([]float64, error) {
		var obsCounts []float64
		for trial := 0; trial < trials; trial++ {
			// Five units; the first is the sensitive one (its accuracy
			// is what actually matters for the app QoS).
			sensitive := &ablUnit{sens: 5, max: 20}
			units := []core.Unit{sensitive}
			for len(units) < 5 {
				units = append(units, &ablUnit{sens: 0.1, max: 20})
			}
			app, err := core.NewApp(core.AppConfig{
				SLA: 0.02, Seed: workload.Split(o.Seed, 950+int64(trial)),
				RandomRanking: random, BackoffThreshold: 1000, // isolate ranking
			}, units...)
			if err != nil {
				return nil, err
			}
			loss := func() float64 {
				return 0.08 / float64(1+sensitive.level)
			}
			obs := 0
			for ; obs < 200; obs++ {
				l := loss()
				if l <= 0.02 {
					break
				}
				app.ObserveAppQoS(l)
			}
			obsCounts = append(obsCounts, float64(obs))
		}
		return obsCounts, nil
	}
	ranked, err := convergence(false)
	if err != nil {
		return nil, err
	}
	random, err := convergence(true)
	if err != nil {
		return nil, err
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	p90 := func(xs []float64) float64 {
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		return ys[int(0.9*float64(len(ys)-1))]
	}
	t := &Table{Columns: []string{"ranking", "mean observations to converge", "p90"}}
	t.AddRow("sensitivity (Green)", fmt.Sprintf("%.1f", mean(ranked)), fmt.Sprintf("%.0f", p90(ranked)))
	t.AddRow("random", fmt.Sprintf("%.1f", mean(random)), fmt.Sprintf("%.0f", p90(random)))
	t.AddNote("5 units, one carrying all the QoS sensitivity; %d trials", trials)
	return t, nil
}

// ablUnit is a minimal Unit for the sensitivity ablation.
type ablUnit struct {
	level, max int
	sens       float64
	disabled   bool
}

func (u *ablUnit) Name() string { return "abl" }
func (u *ablUnit) IncreaseAccuracy() bool {
	if u.level >= u.max {
		return false
	}
	u.level++
	return true
}
func (u *ablUnit) DecreaseAccuracy() bool {
	if u.level <= 0 {
		return false
	}
	u.level--
	return true
}
func (u *ablUnit) Sensitivity() float64 { return u.sens }
func (u *ablUnit) DisableApprox()       { u.disabled = true }
func (u *ablUnit) ApproxEnabled() bool  { return !u.disabled }

package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"green"
	"green/internal/approxmath"
	"green/internal/workload"
)

// lib_control drives the library's entry points with a body so small
// that the control law is nearly all the work: a loop that adds up to
// libLoopBound decaying terms, exp through Func, a product through Func2.

// sumQoS is the loop's QoS_Compute: the QoS is the running sum, the loss
// is the share of the final sum the early stop would have missed.
type sumQoS struct{ acc, recorded float64 }

func (q *sumQoS) Record(int) { q.recorded = q.acc }
func (q *sumQoS) Loss(int) float64 {
	if q.acc == 0 {
		return 0
	}
	return (q.acc - q.recorded) / q.acc
}

type termVec [libLoopBound]float64

// libInputsSet is the input side of one run: term vectors for the
// loops, arguments for the functions, and the bare kernels' outputs on
// them, which are the truth.
type libInputsSet struct {
	terms  []termVec
	full   []float64 // sum of all terms of each vector
	xs     []float64 // Func arguments
	exp    []float64
	ax, ay []float64 // Func2 arguments
	prod   []float64
}

// libDecay is the ratio of one term to the one before. After 8 terms
// 0.6105^8 = 1.93% of the sum is still missing: inside the band under
// the 2% SLA where the default policy leaves the level alone, so the
// controllers sit at M=8; when the noise pushes a monitored execution
// out of the band it is over the top, towards more accuracy.
const libDecay = 0.6105

// termVectors draws n vectors of geometrically decaying terms with a
// little noise.
func termVectors(seed int64, n int) []termVec {
	rng := workload.NewRand(seed)
	out := make([]termVec, n)
	for i := range out {
		for k := range out[i] {
			out[i][k] = math.Pow(libDecay, float64(k)) * (0.975 + 0.05*rng.Float64())
		}
	}
	return out
}

func plainSum(t *termVec) float64 {
	acc := 0.0
	for i := 0; i < libLoopBound; i++ {
		acc += t[i]
	}
	return acc
}

func newLibInputs(seed int64) *libInputsSet {
	in := &libInputsSet{
		terms: termVectors(workload.Split(seed, 1), libInputs),
		xs:    workload.UniformFloats(workload.Split(seed, 2), libFuncInputs, -2, 0),
		ax:    workload.UniformFloats(workload.Split(seed, 3), libFuncInputs, 0.5, 9.5),
		ay:    workload.UniformFloats(workload.Split(seed, 4), libFuncInputs, 0.5, 9.5),
	}
	for i := range in.terms {
		in.full = append(in.full, plainSum(&in.terms[i]))
	}
	for i := range in.xs {
		in.exp = append(in.exp, math.Exp(in.xs[i]))
		in.prod = append(in.prod, in.ax[i]*in.ay[i])
	}
	return in
}

// libFixture is one set of calibrated controllers, approximation on or
// disabled.
type libFixture struct {
	steady, monitored, batch, selector, par *green.Loop
	fn                                      *green.Func
	fn2                                     *green.Func2
}

// newLibFixture calibrates on a fixed training set (the corpus seed,
// not -seed) and builds the controllers. Set-up is this function.
func newLibFixture(disabled bool, tr *tracer, v map[string]float64) (*libFixture, error) {
	knots := []float64{4, 6, 8, 10, 12}
	train := termVectors(corpusSeed, libInputs)
	cal, err := green.NewLoopCalibration("sum", knots, libLoopBound, libLoopBound)
	if err != nil {
		return nil, err
	}
	if err := cal.FeatureBuckets([]float64{0.85, 1.0, 1.15}); err != nil {
		return nil, err
	}
	losses, work := make([]float64, len(knots)), make([]float64, len(knots))
	d := tr.timed("core.loop_calibrate", func() {
		for i := range train {
			full := plainSum(&train[i])
			part, k := 0.0, 0
			for j, knot := range knots {
				for ; k < int(knot); k++ {
					part += train[i][k]
				}
				losses[j], work[j] = (full-part)/full, knot
			}
			if err = cal.AddRunFeat(green.Features{Key: train[i][0], Valid: true}, losses, work); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	v["core.loop_calibrate_ms"] = float64(d.Microseconds()) / 1e3
	var m *green.LoopModel
	d = tr.timed("model.build_loop", func() { m, err = cal.Build() })
	if err != nil {
		return nil, err
	}
	v["model.build_loop_us"] = float64(d.Nanoseconds()) / 1e3
	sel, err := cal.BuildSelector()
	if err != nil {
		return nil, err
	}
	d = tr.timed("model.predict", func() {
		for i := 0; i < 1000; i++ {
			sink += m.PredictLoss(4 + float64(i%8))
		}
	})
	v["model.predict_ns"] = float64(d.Nanoseconds()) / 1000

	f := &libFixture{}
	for _, l := range []struct {
		dst      **green.Loop
		name     string
		interval int
	}{
		{&f.steady, "steady", 0},
		{&f.monitored, "monitored", libMonitorGap},
		{&f.batch, "batch", libMonitorGap},
		{&f.selector, "selector", 0},
		{&f.par, "par", 10 * libMonitorGap},
	} {
		*l.dst, err = green.NewLoop(green.LoopConfig{
			Name: l.name, Model: m, SLA: libSLA, SampleInterval: l.interval, Disabled: disabled,
		})
		if err != nil {
			return nil, err
		}
	}
	f.selector.InstallSelector(sel)

	expFns := []green.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4), approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)}
	fcal, err := green.NewFuncCalibration("exp", approxmath.PreciseExpTerms, []string{"e3", "e4", "e5", "e6"}, []float64{4, 5, 6, 7}, 0.1)
	if err != nil {
		return nil, err
	}
	d = tr.timed("core.func_calibrate", func() {
		err = fcal.Calibrate(math.Exp, expFns, workload.UniformFloats(corpusSeed, 2048, -2.5, 0.5), nil)
	})
	if err != nil {
		return nil, err
	}
	v["core.func_calibrate_ms"] = float64(d.Microseconds()) / 1e3
	var fm *green.FuncModel
	d = tr.timed("model.build_func", func() { fm, err = fcal.Build() })
	if err != nil {
		return nil, err
	}
	v["model.build_func_us"] = float64(d.Nanoseconds()) / 1e3
	f.fn, err = green.NewFunc(green.FuncConfig{
		Name: "exp", Model: fm, SLA: 0.01, SampleInterval: libMonitorGap, Disabled: disabled,
	}, math.Exp, expFns)
	if err != nil {
		return nil, err
	}

	// Two graded stand-ins for a two-parameter kernel: the product, 10%
	// and 1.9% off. The grid model qualifies the closer one under the
	// SLA, and its loss sits in the policy's no-change band.
	grid := green.Grid2D{XLo: 0, XHi: 10, YLo: 0, YHi: 10, NX: 4, NY: 4}
	cal2, err := green.NewCalibration2D("prod", 18, []string{"v0", "v1"}, []float64{4, 8}, grid)
	if err != nil {
		return nil, err
	}
	for x := 0.5; x < 10; x++ {
		for y := 0.5; y < 10; y++ {
			if err := cal2.AddSample(0, x, y, 0.10); err != nil {
				return nil, err
			}
			if err := cal2.AddSample(1, x, y, 0.019); err != nil {
				return nil, err
			}
		}
	}
	m2, err := cal2.Build()
	if err != nil {
		return nil, err
	}
	f.fn2, err = green.NewFunc2(green.Func2Config{
		Name: "prod", Model: m2, SLA: libSLA, SampleInterval: libMonitorGap, Disabled: disabled,
	}, func(x, y float64) float64 { return x * y }, []green.Fn2{
		func(x, y float64) float64 { return x * y * 1.10 },
		func(x, y float64) float64 { return x * y * 1.019 },
	})
	return f, err
}

// sink keeps results the compiler could otherwise drop.
var sink float64

// libSlots is one tally per phase of a block's rounds. A slot is also
// one SLA window: each phase answers to its own controller's SLA.
const libSlots = len(libPhases)

// libTally is what the operations of one phase added up to.
type libTally struct {
	ops   int
	loss  float64 // sum over operations of |got-truth|/truth
	iters int     // loop iterations run
	wrong int     // operations that broke the precise contract
}

func (t *libTally) note(got, truth float64, exact bool) {
	t.ops++
	if got == truth {
		return
	}
	if exact {
		t.wrong++
	}
	t.loss += math.Min(1, math.Abs(got-truth)/math.Abs(truth))
}

// libPhases names the eight single-goroutine phases of a round, in the
// order they run; each is timed as a span on the traced pass.
var libPhases = [...]string{
	"core.loop_steady", "core.loop_monitored", "core.loop_execn", "core.loop_selector",
	"core.func_call", "core.func_calln", "core.func2_call", "core.func2_calln",
}

// libRunner runs rounds against one fixture (or none: the bare mode).
type libRunner struct {
	in   *libInputsSet
	fix  *libFixture // nil for bare
	mode mode
	q    sumQoS
	ys   [libPhase]float64
}

// loopOp is one Begin/Continue/Finish execution over vector k.
func (r *libRunner) loopOp(l *green.Loop, k int, feat *green.Features, t *libTally) error {
	vec := &r.in.terms[k]
	r.q.acc = 0
	var (
		e   *green.LoopExec
		err error
	)
	if feat != nil {
		e, err = l.ExecFeat(&r.q, *feat)
	} else {
		e, err = l.Begin(&r.q)
	}
	if err != nil {
		return err
	}
	i := 0
	for ; i < libLoopBound && e.Continue(i); i++ {
		r.q.acc += vec[i]
	}
	e.Finish(i)
	t.iters += i
	t.note(r.q.acc, r.in.full[k], r.mode == approxOff || i == libLoopBound)
	return nil
}

// round runs libRoundOps operations, libPhase in each phase, starting
// at input offset base. mark, when non-nil, is called after each phase.
func (r *libRunner) round(base int, ts *[libSlots]libTally, mark func(phase int)) error {
	in, f := r.in, r.fix
	// The functions' arguments are a window of libPhase inputs that moves
	// with the round (base is a multiple of libPhase).
	off := base % libFuncInputs
	xs, ax, ay := in.xs[off:off+libPhase], in.ax[off:off+libPhase], in.ay[off:off+libPhase]
	exp, prod := in.exp[off:off+libPhase], in.prod[off:off+libPhase]
	done := func(p int) {
		if mark != nil {
			mark(p)
		}
	}
	if f == nil {
		// Bare: the same kernels with no controller around them.
		for p := 0; p < 4; p++ {
			for j := 0; j < libPhase; j++ {
				k := (base + p*libPhase + j) % libInputs
				ts[p].iters += libLoopBound
				ts[p].note(plainSum(&in.terms[k]), in.full[k], true)
			}
			done(p)
		}
		for p := 4; p < 8; p++ {
			for j := off; j < off+libPhase; j++ {
				if p < 6 {
					ts[p].note(math.Exp(in.xs[j]), in.exp[j], true)
				} else {
					ts[p].note(in.ax[j]*in.ay[j], in.prod[j], true)
				}
			}
			done(p)
		}
		return nil
	}

	for j := 0; j < libPhase; j++ {
		if err := r.loopOp(f.steady, (base+j)%libInputs, nil, &ts[0]); err != nil {
			return err
		}
	}
	done(0)
	for j := 0; j < libPhase; j++ {
		if err := r.loopOp(f.monitored, (base+libPhase+j)%libInputs, nil, &ts[1]); err != nil {
			return err
		}
	}
	done(1)
	bt, err := f.batch.ExecN(libPhase, &r.q)
	if err != nil {
		return err
	}
	for j := 0; bt.Next(); j++ {
		k := (base + 2*libPhase + j) % libInputs
		vec := &in.terms[k]
		r.q.acc = 0
		i := 0
		for ; i < libLoopBound && bt.Continue(i); i++ {
			r.q.acc += vec[i]
		}
		bt.End(i)
		ts[2].iters += i
		ts[2].note(r.q.acc, in.full[k], r.mode == approxOff || i == libLoopBound)
	}
	bt.Finish()
	done(2)
	for j := 0; j < libPhase; j++ {
		k := (base + 3*libPhase + j) % libInputs
		feat := green.Features{Key: in.terms[k][0], Valid: true}
		if err := r.loopOp(f.selector, k, &feat, &ts[3]); err != nil {
			return err
		}
	}
	done(3)

	exact := r.mode == approxOff
	for j, x := range xs {
		ts[4].note(f.fn.Call(x), exp[j], exact)
	}
	done(4)
	if err := f.fn.CallN(xs, r.ys[:]); err != nil {
		return err
	}
	for j, y := range r.ys {
		ts[5].note(y, exp[j], exact)
	}
	done(5)
	for j := range ax {
		ts[6].note(f.fn2.Call(ax[j], ay[j]), prod[j], exact)
	}
	done(6)
	if err := f.fn2.CallN(ax, ay, r.ys[:]); err != nil {
		return err
	}
	for j, y := range r.ys {
		ts[7].note(y, prod[j], exact)
	}
	done(7)
	return nil
}

// add folds o into t.
func (t *libTally) add(o libTally) {
	t.ops += o.ops
	t.loss += o.loss
	t.iters += o.iters
	t.wrong += o.wrong
}

// burst is the two-goroutine phase: both hammer the shared par loop for
// n executions each. It runs between the timed blocks: whether a shared
// box has two cores free at that moment is not the library's doing, so
// it is timed as a layer and kept out of the end-to-end throughput.
func (r *libRunner) burst(n int, t *libTally) error {
	if cpus := runtime.NumCPU(); cpus < 2 {
		return fmt.Errorf("the burst runs 2 goroutines at once but the box has %d CPU: they would time each other", cpus)
	}
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	var wg sync.WaitGroup
	tallies := make([]libTally, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &libRunner{in: r.in, fix: r.fix, mode: r.mode}
			for j := 0; j < n; j++ {
				if err := w.loopOp(w.fix.par, (g*n+j)%libInputs, nil, &tallies[g]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range tallies {
		if errs[g] != nil {
			return errs[g]
		}
		t.add(tallies[g])
	}
	return nil
}

// overheadPair is §4.1: the same loop of iters iterations over a
// body of eight square roots, once plain and once behind Continue with
// approximation disabled; it returns disabled time over plain time.
func overheadPair(loop *green.Loop, iters int, disabledFirst bool) (float64, error) {
	body := func(i int) float64 {
		x := float64(i%97)*1e-3 + 1.1
		for k := 0; k < 8; k++ {
			x = math.Sqrt(x*x + float64(k))
		}
		return x
	}
	plain := func() time.Duration {
		t0 := time.Now()
		acc := 0.0
		for i := 0; i < iters; i++ {
			acc += body(i)
		}
		sink += acc
		return time.Since(t0)
	}
	var err error
	disabled := func() time.Duration {
		t0 := time.Now()
		var e *green.LoopExec
		if e, err = loop.Begin(noopQoS{}); err != nil {
			return 0
		}
		acc := 0.0
		i := 0
		for ; i < iters && e.Continue(i); i++ {
			acc += body(i)
		}
		e.Finish(i)
		sink += acc
		return time.Since(t0)
	}
	var dp, dd time.Duration
	if disabledFirst {
		dd, dp = disabled(), plain()
	} else {
		dp, dd = plain(), disabled()
	}
	if err != nil {
		return 0, err
	}
	return float64(dd) / float64(dp), nil
}

// newOverheadLoop is §4.1's controller: approximation disabled, a model
// whose levels the loop never reaches.
func newOverheadLoop() (*green.Loop, error) {
	pts := []green.CalPoint{{Level: 100, QoSLoss: 0.1, Work: 100}, {Level: 1000, QoSLoss: 0.01, Work: 1000}}
	m, err := green.BuildLoopModel("overhead", pts, 1e9, 1e9)
	if err != nil {
		return nil, err
	}
	return green.NewLoop(green.LoopConfig{Name: "overhead", Model: m, SLA: libSLA, SampleInterval: libMonitorGap, Disabled: true})
}

// combineSearchUS times the §3.4 combination search over the shape the
// fleet control plane gives it: 3 units of 8 candidate levels each, the
// additive estimate.
func combineSearchUS(tr *tracer) (float64, error) {
	cands := make([][]green.Setting, clusterShards)
	for u := range cands {
		for k := 0; k < 8; k++ {
			cands[u] = append(cands[u], green.Setting{Unit: u, Label: fmt.Sprint(u, k), PredLoss: 0.02 / float64(k+1), Speedup: 1 + 1/float64(k+1)})
		}
	}
	var err error
	d := tr.timed("core.combine_search", func() { _, err = green.CombineSearch(cands, libSLA, nil) })
	return float64(d.Nanoseconds()) / 1e3, err
}

func runLibControl(cfg runConfig) (*result, error) {
	const name = "lib_control"
	res := &result{values: make(map[string]float64)}
	v := res.values
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	total, perBlock := cfg.opsPerMode(name, libRoundOps)
	rounds := perBlock / libRoundOps
	// After each block each of two goroutines runs an eighth as many
	// executions on the shared loop.
	burstEach, pairIters := perBlock/8, overheadIters
	if cfg.tiny {
		pairIters = 1000
	}

	var (
		fix    [2]*libFixture
		setups []float64
		ovLoop *green.Loop
		reps   = 25
	)
	for i := 0; i < reps; i++ {
		s, err := quietSeconds(name, func(func()) (err error) {
			for m := approxOn; m <= approxOff; m++ {
				if fix[m], err = newLibFixture(m == approxOff, tr, v); err != nil {
					return err
				}
			}
			ovLoop, err = newOverheadLoop()
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	t0 := time.Now()
	in := newLibInputs(cfg.seed)
	gen := time.Since(t0)

	// libSLAs is the SLA each slot's controller answers to.
	libSLAs := [libSlots]float64{libSLA, libSLA, libSLA, libSLA, 0.01, 0.01, libSLA, libSLA}
	type passOut struct {
		run     *blockRun
		tally   [modes]libTally
		slotSum [libSlots]libTally
		burst   libTally
		// windows and met count the Green-on (block, slot) pairs and those
		// whose mean loss stayed within the slot's SLA.
		windows, met int
		ratios       []float64
		changes      int
		phaseNS      [len(libPhases)]float64
		burstNS      float64
	}
	pass := func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		runners := [modes]*libRunner{
			{in: in, fix: fix[approxOn], mode: approxOn},
			{in: in, fix: fix[approxOff], mode: approxOff},
			{in: in, mode: bare},
		}
		var runErr error
		level := fix[approxOn].monitored.Level()
		fn := func(m mode, b int, lat *[]float64) int {
			r := runners[m]
			var slots [libSlots]libTally
			for k := 0; k < rounds && runErr == nil; k++ {
				base := (b*rounds + k) * libPhase
				t0 := time.Now()
				var mark func(int)
				if tr != nil && m == approxOn {
					last := t0
					mark = func(p int) {
						now := time.Now()
						tr.add(libPhases[p], last, now, b*rounds+k, false)
						out.phaseNS[p] += float64(now.Sub(last))
						last = now
					}
				}
				runErr = r.round(base, &slots, mark)
				*lat = append(*lat, float64(time.Since(t0))/1e3)
			}
			ops := 0
			for p, slot := range slots {
				out.tally[m].add(slot)
				ops += slot.ops
				if m == approxOn && slot.ops > 0 {
					out.slotSum[p].add(slot)
					out.windows++
					if slot.loss/float64(slot.ops) <= libSLAs[p] {
						out.met++
					}
				}
			}
			return ops
		}
		after := func(b int) {
			if runErr != nil {
				return
			}
			var ratio float64
			if ratio, runErr = overheadPair(ovLoop, pairIters, b%2 == 0); runErr == nil {
				out.ratios = append(out.ratios, ratio)
			}
			if now := fix[approxOn].monitored.Level(); now != level {
				out.changes++
				level = now
			}
			var t libTally
			t0 := time.Now()
			runErr = runners[approxOn].burst(burstEach, &t)
			t1 := time.Now()
			tr.add("core.loop_par2", t0, t1, b, false)
			out.burstNS += float64(t1.Sub(t0))
			out.burst.add(t)
			out.windows++
			if t.ops > 0 && t.loss/float64(t.ops) <= libSLA {
				out.met++
			}
		}
		out.run = runBlocks(name, total/perBlock, fn, after)
		return out, runErr
	}

	// count adds a pass's operations, and those that broke the contract,
	// to the result.
	count := func(p *passOut) {
		for _, t := range append(p.tally[:], p.burst) {
			res.attempted += t.ops
			res.failed += t.wrong
		}
	}
	work := func(p *passOut, m mode) float64 {
		return float64(p.tally[m].iters) + fix[m].fn.Work()
	}
	if !cfg.traced {
		p, err := pass(nil)
		if err != nil {
			return nil, err
		}
		g := p.tally[approxOn]
		count(p)
		v["ok_share"] = 1 - float64(res.failed)/float64(max(1, res.attempted))
		v["qos_kept"] = 1 - g.loss/float64(max(1, g.ops))
		v["overhead_ratio"] = median(p.ratios)
		// A window here is one phase of one block, held against its own
		// controller's SLA: operations are too short to keep a loss each.
		v["sla_met_share"] = float64(p.met) / float64(max(1, p.windows))
		v["setup_s"] = median(setups)
		res.notes = append(res.notes, p.run.common(v, work(p, approxOn), work(p, approxOff)))
		for p, sl := range p.slotSum {
			res.notes = append(res.notes, fmt.Sprintf("%s: qos_loss %.5f against SLA %.3f", libPhases[p], sl.loss/float64(max(1, sl.ops)), libSLAs[p]))
		}
		res.notes = append(res.notes,
			fmt.Sprintf("%d operations per mode in %d blocks; one latency sample is one round of %d operations", g.ops, blocksPerMode, libRoundOps),
			fmt.Sprintf("qos_loss %.5f (mean share of the output missing) against SLA %.3f", 1-v["qos_kept"], libSLA),
			fmt.Sprintf("overhead_ratio is the §4.1 loop: approximation disabled over plain, median of %d pairs of %d iterations", len(p.ratios), overheadIters))
		return res, nil
	}

	untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	traced, err := pass(tr)
	if err != nil {
		return nil, err
	}
	count(untraced)
	count(traced)
	nRounds := float64(rounds * total / perBlock)
	for p, name := range libPhases {
		v[name+"_ns"] = traced.phaseNS[p] / (nRounds * libPhase)
	}
	v["core.loop_par2_ns"] = traced.burstNS / float64(max(1, traced.burst.ops))
	ops, _, _, mallocs := traced.run.totals(approxOn)
	v["core.allocs_per_exec"] = float64(mallocs) / float64(max(1, ops))
	var execs, monitored int64
	for _, c := range []green.Controller{fix[approxOn].steady, fix[approxOn].monitored, fix[approxOn].batch, fix[approxOn].selector, fix[approxOn].par, fix[approxOn].fn, fix[approxOn].fn2} {
		e, m, _ := c.Stats()
		execs, monitored = execs+e, monitored+m
	}
	v["core.monitored_share"] = float64(monitored) / float64(max(1, execs))
	v["core.level_changes"] = float64(traced.changes)
	v["core.final_level"] = fix[approxOn].monitored.Level()
	if v["core.combine_search_us"], err = combineSearchUS(tr); err != nil {
		return nil, err
	}
	v["bench.gen_us_per_op"] = float64(gen.Microseconds()) / float64(total)
	instrumentMetrics(v, untraced.run, traced.run)
	return res, tr.write(cfg.outDir, name)
}

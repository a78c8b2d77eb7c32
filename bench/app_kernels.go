package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"green"
	"green/internal/approxmath"
	"green/internal/blackscholes"
	"green/internal/dft"
	"green/internal/metrics"
	"green/internal/raytracer"
	"green/internal/workload"
)

// app_kernels drives the paper's library users the way examples/dftfilter,
// examples/options and examples/renderer do: the kernels dominate and the
// controller is a rounding error.

// appFixture is one set of calibrated controllers around the three
// applications, approximation on or disabled.
type appFixture struct {
	cos      *green.Func // DFT: cos through graded polynomials
	trig     dft.Trig
	exp      *green.Func // Black-Scholes: exp through Taylor versions
	math     blackscholes.MathFns
	growth   *green.Func2 // forward prices: exp(rate*maturity) on a grid
	passes   *green.Loop  // ray tracer: adaptive pass loop
	logTerms float64
	scene    *raytracer.Scene
}

func absQoS(p, a float64) float64 { return math.Abs(a - p) }

func mod2pi(x float64) float64 {
	y := math.Mod(x, 2*math.Pi)
	if y < 0 {
		y += 2 * math.Pi
	}
	return y
}

func growthPrecise(rate, maturity float64) float64 { return math.Exp(rate * maturity) }

func growthTaylor(deg int) green.Fn2 {
	f := approxmath.ExpTaylor(deg)
	return func(rate, maturity float64) float64 { return f(rate * maturity) }
}

// newAppFixtures calibrates the three applications on fixed training
// inputs (the corpus seed, not -seed) and builds their controllers twice
// from the same models: approximation on, and disabled.
func newAppFixtures(trainCameras int, tr *tracer, v map[string]float64) (fix [2]*appFixture, err error) {
	// DFT: per-grade loss of cos over one period, absolute error.
	var cosFns []green.Fn
	var names []string
	var work []float64
	for _, g := range approxmath.TrigGrades {
		cosFns = append(cosFns, green.Fn(approxmath.CosFn(g)))
		names = append(names, g.String())
		work = append(work, float64(g.Terms()))
	}
	cal, err := green.NewFuncCalibration("cos", float64(approxmath.TrigPrecise.Terms()), names, work, math.Pi/8)
	if err != nil {
		return fix, err
	}
	d := tr.timed("core.func_calibrate", func() {
		err = cal.Calibrate(math.Cos, cosFns, workload.UniformFloats(corpusSeed, 4000, 0, 2*math.Pi), absQoS)
	})
	if err != nil {
		return fix, err
	}
	v["core.func_calibrate_ms"] = float64(d.Microseconds()) / 1e3
	var cosModel *green.FuncModel
	d = tr.timed("model.build_func", func() { cosModel, err = cal.Build() })
	if err != nil {
		return fix, err
	}
	v["model.build_func_us"] = float64(d.Nanoseconds()) / 1e3

	// Black-Scholes: exp over the argument range the training portfolio
	// produces.
	train := workload.Options(corpusSeed, 8000)
	expFns := []green.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4), approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)}
	ecal, err := green.NewFuncCalibration("exp", approxmath.PreciseExpTerms, []string{"e3", "e4", "e5", "e6"}, []float64{4, 5, 6, 7}, 0.1)
	if err != nil {
		return fix, err
	}
	if err := ecal.Calibrate(math.Exp, expFns, blackscholes.ObservedExpArgs(train), nil); err != nil {
		return fix, err
	}
	expModel, err := ecal.Build()
	if err != nil {
		return fix, err
	}

	// Forward prices: the growth factor exp(rate*maturity) as a function
	// of two parameters, calibrated on a grid.
	grid := green.Grid2D{XLo: 0, XHi: 0.11, YLo: 0, YHi: 3.1, NX: 4, NY: 4}
	gcal, err := green.NewCalibration2D("growth", approxmath.PreciseExpTerms, []string{"g1", "g2"}, []float64{2, 3}, grid)
	if err != nil {
		return fix, err
	}
	growthFns := []green.Fn2{growthTaylor(1), growthTaylor(2)}
	for _, o := range train[:2000] {
		p := growthPrecise(o.Rate, o.Maturity)
		for ver, g := range growthFns {
			if err := gcal.AddSample(ver, o.Rate, o.Maturity, math.Abs(g(o.Rate, o.Maturity)-p)/p); err != nil {
				return fix, err
			}
		}
	}
	growthModel, err := gcal.Build()
	if err != nil {
		return fix, err
	}

	// Ray tracer: loss and image movement at each candidate pass count,
	// over training cameras.
	scene := raytracer.NewScene(corpusSeed)
	knots := []float64{16, 25, 36, 49, 64, 81}
	lcal, err := green.NewLoopCalibration("render.passes", knots, appBasePasses, appBasePasses*appWidth*appHeight*3)
	if err != nil {
		return fix, err
	}
	movements := make([]float64, len(knots))
	d = tr.timed("core.loop_calibrate", func() {
		for c := 0; c < trainCameras && err == nil; c++ {
			err = calibrateCamera(lcal, scene, c, knots, movements)
		}
	})
	if err != nil {
		return fix, err
	}
	v["core.loop_calibrate_ms"] = float64(d.Microseconds()) / 1e3
	var passModel *green.LoopModel
	d = tr.timed("model.build_loop", func() { passModel, err = lcal.Build() })
	if err != nil {
		return fix, err
	}
	v["model.build_loop_us"] = float64(d.Nanoseconds()) / 1e3

	for m := approxOn; m <= approxOff; m++ {
		off := m == approxOff
		f := &appFixture{scene: scene}
		if f.cos, err = green.NewFunc(green.FuncConfig{
			Name: "cos", Model: cosModel, SLA: appDFTSLA, QoS: absQoS, Key: mod2pi, Disabled: off,
		}, math.Cos, cosFns); err != nil {
			return fix, err
		}
		f.trig = dft.Trig{Sin: func(x float64) float64 { return f.cos.Call(x - math.Pi/2) }, Cos: f.cos.Call}
		if f.exp, err = green.NewFunc(green.FuncConfig{Name: "exp", Model: expModel, SLA: appExpSLA, Disabled: off}, math.Exp, expFns); err != nil {
			return fix, err
		}
		// log runs at a fixed Taylor degree, as the deployed winner of the
		// options example's combination search does.
		f.math, f.logTerms = blackscholes.MathFns{Exp: f.exp.Call}, approxmath.PreciseLogTerms
		if !off {
			f.math.Log, f.logTerms = approxmath.LogTaylor(appLogDegree), float64(approxmath.LogTerms(appLogDegree))
		}
		if f.growth, err = green.NewFunc2(green.Func2Config{Name: "growth", Model: growthModel, SLA: appFwdSLA, Disabled: off}, growthPrecise, growthFns); err != nil {
			return fix, err
		}
		if f.passes, err = green.NewLoop(green.LoopConfig{
			Name: "render.passes", Model: passModel, SLA: appPixelSLA, Mode: green.Adaptive, Disabled: off,
		}); err != nil {
			return fix, err
		}
		// TargetDelta in the runtime improvement metric: the mean image
		// movement between the knots around the SLA's static M.
		ap := f.passes.Adaptive()
		idx := len(knots) - 1
		for i, k := range knots {
			if k >= f.passes.Level() {
				idx = i
				break
			}
		}
		idx = max(1, idx)
		ap.Period, ap.TargetDelta = knots[idx]-knots[idx-1], movements[idx]/float64(trainCameras)
		if err := f.passes.SetAdaptive(ap); err != nil {
			return fix, err
		}
		fix[m] = f
	}
	return fix, nil
}

// calibrateCamera adds one training camera's run to the calibration.
func calibrateCamera(cal *green.LoopCalibration, scene *raytracer.Scene, c int, knots, movements []float64) error {
	cam := raytracer.RandomCamera(int64(10 + c))
	ref, _, err := raytracer.Render(scene, cam, appWidth, appHeight, appBasePasses, int64(c))
	if err != nil {
		return err
	}
	r, err := raytracer.NewRenderer(scene, cam, appWidth, appHeight, int64(c))
	if err != nil {
		return err
	}
	losses, work := make([]float64, len(knots)), make([]float64, len(knots))
	var prev []float64
	for i, k := range knots {
		for r.Passes() < int(k) {
			r.Pass()
		}
		snap := r.Snapshot().Pix
		if losses[i], err = metrics.PixelDiff(ref.Pix, snap); err != nil {
			return err
		}
		work[i] = float64(r.Rays())
		if prev != nil {
			mv, err := metrics.PixelDiff(prev, snap)
			if err != nil {
				return err
			}
			movements[i] += mv
		}
		prev = snap
	}
	return cal.AddRun(losses, work)
}

// renderQoS adapts an incremental render to green.DeltaQoS, as the
// renderer example does: the QoS is the framebuffer.
type renderQoS struct {
	r              *raytracer.Renderer
	recorded, prev []float64
}

func (q *renderQoS) Record(int) { q.recorded = q.r.Snapshot().Pix }

func (q *renderQoS) Loss(int) float64 {
	if q.recorded == nil {
		return 0
	}
	d, err := metrics.PixelDiff(q.r.Snapshot().Pix, q.recorded)
	if err != nil {
		return 0
	}
	return d
}

func (q *renderQoS) Delta(int) float64 {
	cur := q.r.Snapshot().Pix
	if q.prev == nil {
		q.prev = cur
		return 1
	}
	d, err := metrics.PixelDiff(q.prev, cur)
	q.prev = cur
	if err != nil {
		return 0
	}
	return d
}

// appKind is which application an operation belongs to.
type appKind int

const (
	kindDFT appKind = iota
	kindBS
	kindRender
	appKinds
)

var (
	appSLAs  = [appKinds]float64{appDFTSLA, appExpSLA, appPixelSLA}
	appNames = [appKinds]string{"dft.transform", "blackscholes.price", "raytracer.render"}
)

// kindOf lays the group's mix out over operation indices.
func kindOf(op int) appKind {
	switch k := op % appGroupOps; {
	case k < appGroupDFT:
		return kindDFT
	case k < appGroupDFT+appGroupBS:
		return kindBS
	}
	return kindRender
}

// appOutput is one operation's result: the numbers that are compared
// against the bare kernel's, and the work it took.
type appOutput struct {
	vals []float64
	work float64
}

// appInput is one operation's input, generated before its block is
// timed: a signal, a portfolio (with its rates and maturities laid out
// for CallN), or a camera.
type appInput struct {
	seed        int64
	signal      []float64
	options     []workload.Option
	rates, mats []float64
	camera      raytracer.Camera
}

// newAppInput derives operation op's input from the run's seed.
func newAppInput(seed int64, op int) appInput {
	in := appInput{seed: workload.Split(seed, int64(op))}
	switch kindOf(op) {
	case kindDFT:
		in.signal = workload.Signal(in.seed, appSignalLen)
	case kindBS:
		in.options = workload.Options(in.seed, appOptions)
		for _, o := range in.options {
			in.rates, in.mats = append(in.rates, o.Rate), append(in.mats, o.Maturity)
		}
	default:
		in.camera = raytracer.RandomCamera(in.seed)
	}
	return in
}

// appOp runs operation op in mode m on its input.
func appOp(f *appFixture, m mode, op int, in appInput) (appOutput, error) {
	switch kindOf(op) {
	case kindDFT:
		sig := in.signal
		// The program as written for Green takes sin from cos; the bare
		// version is that same program on math.Cos.
		trig := dft.Trig{Sin: func(x float64) float64 { return math.Cos(x - math.Pi/2) }, Cos: math.Cos}
		work := float64(dft.TrigCalls(appSignalLen)) * float64(approxmath.TrigPrecise.Terms())
		if m != bare {
			trig = f.trig
			f.cos.WorkReset()
		}
		re, im, err := dft.Transform(sig, trig)
		if m != bare {
			work = f.cos.Work()
		}
		return appOutput{append(re, im...), work}, err

	case kindBS:
		opts := in.options
		fns := blackscholes.MathFns{}
		work := float64(appOptions) * (blackscholes.ExpCallsPerOption*approxmath.PreciseExpTerms + blackscholes.LogCallsPerOption*approxmath.PreciseLogTerms)
		if m != bare {
			fns = f.math
			f.exp.WorkReset()
		}
		prices, err := blackscholes.PricePortfolio(opts, fns)
		if err != nil {
			return appOutput{}, err
		}
		if m != bare {
			work = f.exp.Work() + float64(appOptions)*blackscholes.LogCallsPerOption*f.logTerms
		}
		fwd := make([]float64, appOptions)
		if m == bare {
			for i, o := range opts {
				fwd[i] = o.Spot * growthPrecise(o.Rate, o.Maturity)
			}
		} else {
			if err := f.growth.CallN(in.rates, in.mats, fwd); err != nil {
				return appOutput{}, err
			}
			for i, o := range opts {
				fwd[i] *= o.Spot
			}
		}
		return appOutput{append(prices, fwd...), work}, nil
	}

	r, err := raytracer.NewRenderer(f.scene, in.camera, appWidth, appHeight, in.seed)
	if err != nil {
		return appOutput{}, err
	}
	if m == bare {
		for i := 0; i < appBasePasses; i++ {
			r.Pass()
		}
	} else {
		exec, err := f.passes.Begin(&renderQoS{r: r})
		if err != nil {
			return appOutput{}, err
		}
		i := 0
		for ; i < appBasePasses && exec.Continue(i); i++ {
			r.Pass()
		}
		exec.Finish(i)
	}
	return appOutput{r.Snapshot().Pix, float64(r.Rays())}, nil
}

// appLoss is the application's own QoS loss of got against truth.
func appLoss(k appKind, got, truth []float64) (float64, error) {
	switch k {
	case kindDFT:
		n := len(truth) / 2
		lr, err := metrics.RMSNormDiff(truth[:n], got[:n])
		if err != nil {
			return 0, err
		}
		li, err := metrics.RMSNormDiff(truth[n:], got[n:])
		return (lr + li) / 2, err
	case kindBS:
		return metrics.MeanNormDiff(truth, got, 0.01)
	}
	return metrics.PixelDiff(truth, got)
}

func runAppKernels(cfg runConfig) (*result, error) {
	const name = "app_kernels"
	res := &result{values: make(map[string]float64)}
	v := res.values
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	total, perBlock := cfg.opsPerMode(name, appGroupOps)
	nBlocks := total / perBlock

	var fix [2]*appFixture
	var setups []float64
	reps, trainCameras := 3, 4
	if cfg.tiny {
		reps, trainCameras = 1, 1
	}
	for i := 0; i < reps; i++ {
		s, err := quietSeconds(name, func(func()) (err error) {
			fix, err = newAppFixtures(trainCameras, tr, v)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	type passOut struct {
		run       *blockRun
		attempted int
		failed    int
		losses    [appKinds][]float64 // Green-on, per kind, in order
		work      [modes]float64
		kindUS    [modes][appKinds][]float64
	}
	pass := func(first int, tr *tracer) (*passOut, error) {
		out := &passOut{}
		var outs [modes][]appOutput
		for m := range outs {
			outs[m] = make([]appOutput, perBlock)
		}
		// The inputs of a block are generated before it, untimed, and
		// shared by its three modes.
		inputs := make([]appInput, perBlock)
		prepare := func(b int) {
			for i := range inputs {
				inputs[i] = newAppInput(cfg.seed, first+b*perBlock+i)
			}
		}
		prepare(0)
		var runErr error
		fn := func(m mode, b int, lat *[]float64) int {
			f := fix[min(m, approxOff)]
			group := 0.0
			for i := 0; i < perBlock && runErr == nil; i++ {
				op := first + b*perBlock + i
				t0 := time.Now()
				outs[m][i], runErr = appOp(f, m, op, inputs[i])
				t1 := time.Now()
				us := float64(t1.Sub(t0)) / 1e3
				// One latency sample is one group of the mix (7 transforms,
				// 21 option batches, one render): a percentile over three
				// kinds three orders of magnitude apart says which kind it
				// fell in, not how long anything took.
				if group += us; (i+1)%appGroupOps == 0 {
					*lat = append(*lat, group)
					group = 0
				}
				out.kindUS[m][kindOf(op)] = append(out.kindUS[m][kindOf(op)], us)
				out.work[m] += outs[m][i].work
				if tr != nil {
					tr.add(appNames[kindOf(op)]+"."+m.String(), t0, t1, op, false)
				}
			}
			return perBlock
		}
		after := func(b int) {
			for i := 0; i < perBlock && runErr == nil; i++ {
				k := kindOf(first + b*perBlock + i)
				truth := outs[bare][i].vals
				out.attempted += 2
				if !slices.Equal(outs[approxOff][i].vals, truth) {
					out.failed++
				}
				var loss float64
				if loss, runErr = appLoss(k, outs[approxOn][i].vals, truth); runErr != nil {
					return
				}
				if math.IsNaN(loss) || loss > 1 {
					out.failed++
					loss = 1
				}
				out.losses[k] = append(out.losses[k], loss)
			}
			if b+1 < nBlocks {
				prepare(b + 1)
			}
		}
		out.run = runBlocks(name, nBlocks, fn, after)
		return out, runErr
	}

	if !cfg.traced {
		p, err := pass(0, nil)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = p.attempted, p.failed
		v["ok_share"] = 1 - float64(p.failed)/float64(max(1, p.attempted))
		// qos_kept is one minus the mean over operations of each
		// application's own loss; the windows hold each application's
		// losses against its own SLA, a twentieth of its operations at a
		// time.
		var lossSum, n, met, windows float64
		for k := kindDFT; k < appKinds; k++ {
			lossSum += sum(p.losses[k])
			n += float64(len(p.losses[k]))
			w := max(1, len(p.losses[k])/blocksPerMode)
			for i := 0; i+w <= len(p.losses[k]); i += w {
				windows++
				if mean(p.losses[k][i:i+w]) <= appSLAs[k] {
					met++
				}
			}
			res.notes = append(res.notes, fmt.Sprintf("%s: qos_loss %.3g against SLA %.3g over %d operations",
				appNames[k], mean(p.losses[k]), appSLAs[k], len(p.losses[k])))
		}
		v["qos_kept"] = 1 - lossSum/max(1, n)
		v["sla_met_share"] = met / max(1, windows)
		v["setup_s"] = median(setups)
		res.notes = append(res.notes, p.run.common(v, p.work[approxOn], p.work[approxOff]))
		return res, nil
	}

	untraced, err := pass(0, nil)
	if err != nil {
		return nil, err
	}
	traced, err := pass(total, tr)
	if err != nil {
		return nil, err
	}
	res.attempted = untraced.attempted + traced.attempted
	res.failed = untraced.failed + traced.failed
	v["dft.transform_us_precise"] = median(traced.kindUS[approxOff][kindDFT])
	v["dft.transform_us_green"] = median(traced.kindUS[approxOn][kindDFT])
	v["blackscholes.price_ns_precise"] = median(traced.kindUS[approxOff][kindBS]) * 1e3 / appOptions
	v["blackscholes.price_ns_green"] = median(traced.kindUS[approxOn][kindBS]) * 1e3 / appOptions
	v["raytracer.render_ms_precise"] = median(traced.kindUS[approxOff][kindRender]) / 1e3
	v["raytracer.render_ms_green"] = median(traced.kindUS[approxOn][kindRender]) / 1e3
	v["approxmath.cos_ns_precise"] = perCallNS(tr, "approxmath.cos_precise", math.Cos)
	v["approxmath.cos_ns_chosen"] = perCallNS(tr, "approxmath.cos_chosen", fix[approxOn].cos.Call)
	ops, _, _, mallocs := traced.run.totals(approxOn)
	v["core.allocs_per_exec"] = float64(mallocs) / float64(max(1, ops))
	v["core.final_level"] = fix[approxOn].passes.Level()
	instrumentMetrics(v, untraced.run, traced.run)
	return res, tr.write(cfg.outDir, name)
}

// perCallNS times 20000 calls of fn over one period and returns
// nanoseconds per call.
func perCallNS(tr *tracer, span string, fn func(float64) float64) float64 {
	const n = 20000
	d := tr.timed(span, func() {
		for i := 0; i < n; i++ {
			sink += fn(float64(i) * (2 * math.Pi / n))
		}
	})
	return float64(d.Nanoseconds()) / n
}

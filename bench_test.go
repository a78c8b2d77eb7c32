// Benchmarks regenerating the paper's tables and figures as wall-clock
// measurements (one benchmark family per figure). The deterministic
// simulated-cost versions of the same experiments live in
// internal/experiments and are driven by cmd/greenbench; these benchmarks
// provide the real-time evidence that the approximated versions do
// proportionally less work on this machine.
//
// Run with:
//
//	go test -bench=. -benchmem
package green_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"green"
	"green/internal/approxmath"
	"green/internal/blackscholes"
	"green/internal/cga"
	"green/internal/cluster"
	"green/internal/core"
	"green/internal/dft"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/raytracer"
	"green/internal/search"
	"green/internal/serve"
	"green/internal/taskgraph"
	"green/internal/wire"
	"green/internal/workload"
)

// --- shared fixtures, built once ------------------------------------

var (
	searchOnce    sync.Once
	searchEngine  *search.Engine
	searchQueries []search.Query
	searchErr     error
)

func searchFixture(b *testing.B) (*search.Engine, []search.Query) {
	b.Helper()
	searchOnce.Do(func() {
		searchEngine, searchErr = search.NewEngine(search.Config{Seed: 42})
		if searchErr != nil {
			return
		}
		searchQueries, searchErr = searchEngine.GenerateQueries(43, 400)
	})
	if searchErr != nil {
		b.Fatal(searchErr)
	}
	return searchEngine, searchQueries
}

// searchRefN is the M unit used by the benchmarks (a representative
// document budget; the experiment driver derives it from the workload).
const searchRefN = 800

// BenchmarkFig06SearchCalibration measures the calibration phase: one
// iteration processes one training query at every calibration knot.
func BenchmarkFig06SearchCalibration(b *testing.B) {
	e, qs := searchFixture(b)
	knots := []float64{0.1, 0.5, 1, 2, 5, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		precise, _ := e.Search(q, 10, 0)
		for _, k := range knots {
			approx, _ := e.Search(q, 10, int(k*searchRefN))
			_ = metrics.QueryLoss(precise, approx)
		}
	}
}

// BenchmarkFig10Fig11SearchVersions measures per-query wall time of the
// evaluated Bing Search versions (Figures 10/11 report throughput/energy
// and QoS of exactly these versions).
func BenchmarkFig10Fig11SearchVersions(b *testing.B) {
	e, qs := searchFixture(b)
	versions := []struct {
		name    string
		maxDocs int
	}{
		{"Base", 0},
		{"M-10N", 10 * searchRefN},
		{"M-2N", 2 * searchRefN},
		{"M-N", searchRefN},
	}
	for _, v := range versions {
		b.Run(v.name, func(b *testing.B) {
			docs := 0
			for i := 0; i < b.N; i++ {
				_, n := e.Search(qs[i%len(qs)], 10, v.maxDocs)
				docs += n
			}
			b.ReportMetric(float64(docs)/float64(b.N), "docs/query")
		})
	}
	b.Run("M-PRO-0.5N", func(b *testing.B) {
		period := searchRefN / 2
		docs := 0
		for i := 0; i < b.N; i++ {
			s := e.NewScan(qs[i%len(qs)], 10)
			var prev []int
			for {
				advanced := false
				for j := 0; j < period; j++ {
					if !s.Step() {
						break
					}
					advanced = true
				}
				if !advanced {
					break
				}
				cur := s.TopN()
				if prev != nil && metrics.TopNExactMatch(prev, cur) {
					break
				}
				prev = cur
			}
			docs += s.Processed()
		}
		b.ReportMetric(float64(docs)/float64(b.N), "docs/query")
	})
}

// BenchmarkFig12QueueSimulation measures the closed-loop load sweep that
// produces the success-rate-vs-QPS curves.
func BenchmarkFig12QueueSimulation(b *testing.B) {
	_, qs := searchFixture(b)
	// Synthetic service times standing in for measured per-query times.
	times := make([]float64, len(qs))
	for i := range times {
		times[i] = 0.005 + 0.00001*float64(i%300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, load := range []float64{0.8, 1.0, 1.2} {
			interval := times[0] / load
			free, ok := 0.0, 0
			for j, s := range times {
				arrive := float64(j) * interval
				if arrive > free {
					free = arrive
				}
				free += s
				if free-arrive <= 0.05 {
					ok++
				}
			}
			_ = ok
		}
	}
}

// BenchmarkFig13ModelTraining measures QoS-model construction from
// calibration points (the training-set-size sensitivity experiment
// rebuilds this model repeatedly).
func BenchmarkFig13ModelTraining(b *testing.B) {
	pts := make([]model.CalPoint, 64)
	for i := range pts {
		pts[i] = model.CalPoint{
			Level:   float64((i + 1) * 100),
			QoSLoss: 1 / float64(i+2),
			Work:    float64((i + 1) * 100),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := model.BuildLoopModel("bench", pts, 1e6, 1e6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.StaticParams(0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14Recalibration measures one Green-controlled query with
// runtime monitoring enabled — the recalibration experiment's inner loop.
func BenchmarkFig14Recalibration(b *testing.B) {
	e, qs := searchFixture(b)
	pts := []model.CalPoint{
		{Level: 0.1 * searchRefN, QoSLoss: 0.10, Work: 0.1 * searchRefN},
		{Level: searchRefN, QoSLoss: 0.01, Work: searchRefN},
		{Level: 10 * searchRefN, QoSLoss: 0.001, Work: 10 * searchRefN},
	}
	m, err := model.BuildLoopModel("search.match", pts, float64(e.Docs()), float64(e.Docs()))
	if err != nil {
		b.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "search.match", Model: m, SLA: 0.02, SampleInterval: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		exec, err := loop.Begin(&benchQueryQoS{engine: e, query: q})
		if err != nil {
			b.Fatal(err)
		}
		s := e.NewScan(q, 10)
		j := 0
		for exec.Continue(j) && s.Step() {
			j++
		}
		exec.Finish(j)
	}
}

type benchQueryQoS struct {
	engine   *search.Engine
	query    search.Query
	recorded []int
}

func (q *benchQueryQoS) Record(iter int) {
	q.recorded, _ = q.engine.Search(q.query, 10, iter)
}

func (q *benchQueryQoS) Loss(int) float64 {
	precise, _ := q.engine.Search(q.query, 10, 0)
	return metrics.QueryLoss(precise, q.recorded)
}

// BenchmarkFig15Fig16EonVersions measures one frame render per version
// (N^2 samples per pixel).
func BenchmarkFig15Fig16EonVersions(b *testing.B) {
	scene := raytracer.NewScene(1)
	cam := raytracer.RandomCamera(2)
	for _, n := range []int{5, 7, 9, 10} {
		name := fmt.Sprintf("N%d", n)
		if n == 10 {
			name = "Base"
		}
		b.Run(name, func(b *testing.B) {
			var rays int64
			for i := 0; i < b.N; i++ {
				_, r, err := raytracer.Render(scene, cam, 16, 12, n*n, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rays += r
			}
			b.ReportMetric(float64(rays)/float64(b.N), "rays/frame")
		})
	}
}

// BenchmarkRenderPass measures one Renderer.Pass at app_kernels' 10x8
// size: one sample per pixel, each drawn from the Renderer's one source
// reseeded by (seed, pass, pixel), so a warm pass allocates nothing
// (check.sh holds it at 0 allocs/op). A Renderer is used by one
// goroutine at a time.
func BenchmarkRenderPass(b *testing.B) {
	r, err := raytracer.NewRenderer(raytracer.NewScene(7), raytracer.RandomCamera(10), 10, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Pass()
	}
}

// BenchmarkFig17EonModelSensitivity measures the calibration sweep of one
// training camera over the version knots.
func BenchmarkFig17EonModelSensitivity(b *testing.B) {
	scene := raytracer.NewScene(1)
	for i := 0; i < b.N; i++ {
		cam := raytracer.RandomCamera(int64(i))
		r, err := raytracer.NewRenderer(scene, cam, 12, 9, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{25, 49, 81} {
			for r.Passes() < k {
				r.Pass()
			}
			_ = r.Snapshot()
		}
	}
}

// BenchmarkFig18Fig19CGAVersions measures a GA run per generation cap on
// one representative task graph.
func BenchmarkFig18Fig19CGAVersions(b *testing.B) {
	g, err := taskgraph.Random(7, 150, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, gens := range []int{100, 300, 600} {
		name := fmt.Sprintf("G%d", gens)
		if gens == 600 {
			name = "Base"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ga, err := cga.New(g, cga.Config{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ga.Run(gens); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig20CGAModelSensitivity measures one calibration run of the
// generation-loop model.
func BenchmarkFig20CGAModelSensitivity(b *testing.B) {
	g, err := taskgraph.Random(9, 100, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ga, err := cga.New(g, cga.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, knot := range []int{50, 100, 200} {
			for ga.Generation() < knot {
				if _, err := ga.Step(); err != nil {
					b.Fatal(err)
				}
			}
			_ = ga.BestMakespan()
		}
	}
}

// BenchmarkFig21Fig22DFTVersions measures one transform per trig grade —
// the C+S versions of Figures 21/22.
func BenchmarkFig21Fig22DFTVersions(b *testing.B) {
	sig := workload.Signal(5, 96)
	grades := []struct {
		name string
		trig dft.Trig
	}{
		{"CS3.2", dft.Trig{Sin: approxmath.SinFn(approxmath.Trig32), Cos: approxmath.CosFn(approxmath.Trig32)}},
		{"CS12.1", dft.Trig{Sin: approxmath.SinFn(approxmath.Trig121), Cos: approxmath.CosFn(approxmath.Trig121)}},
		{"Base", dft.PreciseTrig()},
	}
	for _, g := range grades {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dft.Transform(sig, g.trig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig08ExpLogCalibration measures the function-calibration phase
// behind Figures 8(a)/8(b): one iteration calibrates one argument across
// all versions.
func BenchmarkFig08ExpLogCalibration(b *testing.B) {
	expFns := []core.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
		approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)}
	cal, err := green.NewFuncCalibration("exp", 18,
		[]string{"e3", "e4", "e5", "e6"}, []float64{4, 5, 6, 7}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	args := workload.UniformFloats(3, 1024, -2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := args[i%len(args)]
		yp := math.Exp(x)
		for v, fn := range expFns {
			loss := math.Abs(fn(x)-yp) / yp
			if err := cal.AddSample(v, x, loss); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig08cFig23Fig24Blackscholes measures portfolio pricing per
// version (the evaluation of Figures 8c/23/24).
func BenchmarkFig08cFig23Fig24Blackscholes(b *testing.B) {
	opts := workload.Options(11, 1024)
	versions := []struct {
		name string
		fns  blackscholes.MathFns
	}{
		{"Base", blackscholes.MathFns{}},
		{"e3", blackscholes.MathFns{Exp: approxmath.ExpTaylor(3)}},
		{"e6+lg4", blackscholes.MathFns{Exp: approxmath.ExpTaylor(6), Log: approxmath.LogTaylor(4)}},
	}
	for _, v := range versions {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blackscholes.PricePortfolio(opts, v.fns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The range-based e(cb) version via the Func controller.
	b.Run("ecb", func(b *testing.B) {
		fm := benchExpModel(b)
		f, err := green.NewFunc(green.FuncConfig{Name: "exp", Model: fm, SLA: 0.01},
			math.Exp, []core.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
				approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)})
		if err != nil {
			b.Fatal(err)
		}
		fns := blackscholes.MathFns{Exp: f.Call}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := blackscholes.PricePortfolio(opts, fns); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchExpModel(b *testing.B) *green.FuncModel {
	b.Helper()
	expFns := []core.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
		approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)}
	cal, err := green.NewFuncCalibration("exp", 18,
		[]string{"e3", "e4", "e5", "e6"}, []float64{4, 5, 6, 7}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	if err := cal.Calibrate(math.Exp, expFns,
		workload.UniformFloats(3, 2048, -2.5, 0.5), nil); err != nil {
		b.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkOverhead measures the §4.1 claim directly: the per-iteration
// cost of the Green decision check with approximation forced off,
// compared with the plain loop.
func BenchmarkOverheadPlainLoop(b *testing.B) {
	sink := 0.0
	for i := 0; i < b.N; i++ {
		x := float64(i%97)*1e-3 + 1.1
		for k := 0; k < 8; k++ {
			x = math.Sqrt(x*x + float64(k))
		}
		sink += x
	}
	_ = sink
}

func BenchmarkOverheadGreenLoop(b *testing.B) {
	pts := []model.CalPoint{
		{Level: 100, QoSLoss: 0.1, Work: 100},
		{Level: 1000, QoSLoss: 0.01, Work: 1000},
	}
	m, err := model.BuildLoopModel("bench", pts, 1e9, 1e9)
	if err != nil {
		b.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "bench", Model: m, SLA: 0.02, SampleInterval: 100, Disabled: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := loop.Begin(benchNoopQoS{})
	if err != nil {
		b.Fatal(err)
	}
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N && exec.Continue(i); i++ {
		x := float64(i%97)*1e-3 + 1.1
		for k := 0; k < 8; k++ {
			x = math.Sqrt(x*x + float64(k))
		}
		sink += x
	}
	_ = sink
}

type benchNoopQoS struct{}

func (benchNoopQoS) Record(int)       {}
func (benchNoopQoS) Loss(int) float64 { return 0 }

// --- operational hot path ----------------------------------------------
//
// The paper's §4.1 claim is that the operational-phase controller costs
// nothing measurable. These benchmarks measure the controller itself —
// Begin/Continue/Finish around a trivial body — serially and under
// concurrent load, the regime internal/serve operates in.
// scripts/bench_hotpath.sh records them into BENCH_hotpath.json.

// hotLoopBound is the natural iteration bound of the benchmark loop; the
// model below terminates approximate executions at M=8.
const hotLoopBound = 16

// hotQoS is a no-op QoS whose loss sits in Figure 3's no-change band
// for SLA 0.02, so recalibration never moves the level mid-benchmark.
type hotQoS struct{}

func (hotQoS) Record(int)       {}
func (hotQoS) Loss(int) float64 { return 0.019 }

func hotLoopFixture(b *testing.B, sampleInterval int) *green.Loop {
	b.Helper()
	pts := []green.CalPoint{
		{Level: 4, QoSLoss: 0.10, Work: 4},
		{Level: 8, QoSLoss: 0.01, Work: 8},
	}
	m, err := green.BuildLoopModel("hot", pts, hotLoopBound, hotLoopBound)
	if err != nil {
		b.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "hot", Model: m, SLA: 0.02, SampleInterval: sampleInterval,
	})
	if err != nil {
		b.Fatal(err)
	}
	return loop
}

// runHotExec is one full execution: Begin, the guarded loop, Finish.
func runHotExec(loop *green.Loop, qos green.LoopQoS) error {
	e, err := loop.Begin(qos)
	if err != nil {
		return err
	}
	i := 0
	for ; i < hotLoopBound && e.Continue(i); i++ {
	}
	e.Finish(i)
	return nil
}

func BenchmarkLoopHotPath(b *testing.B) {
	// steady: monitoring disabled — the pure operational path every
	// non-monitored execution takes. The acceptance target is 0 allocs/op.
	b.Run("steady", func(b *testing.B) {
		loop := hotLoopFixture(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runHotExec(loop, hotQoS{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// monitored1k: a 0.1% monitoring duty cycle mixed in.
	b.Run("monitored1k", func(b *testing.B) {
		loop := hotLoopFixture(b, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runHotExec(loop, hotQoS{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// hotFunc2Fixture builds a two-parameter function controller whose grid
// model always qualifies the cheap version, so the steady-state Call
// path is pure controller overhead.
func hotFunc2Fixture(b *testing.B, sampleInterval int) *green.Func2 {
	b.Helper()
	grid := green.Grid2D{XLo: 0, XHi: 10, YLo: 0, YHi: 10, NX: 4, NY: 4}
	cal, err := green.NewCalibration2D("hot2d", 18, []string{"v0", "v1"},
		[]float64{4, 8}, grid)
	if err != nil {
		b.Fatal(err)
	}
	for x := 0.5; x < 10; x++ {
		for y := 0.5; y < 10; y++ {
			if err := cal.AddSample(0, x, y, 0.10); err != nil {
				b.Fatal(err)
			}
			if err := cal.AddSample(1, x, y, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	}
	m, err := cal.Build()
	if err != nil {
		b.Fatal(err)
	}
	precise := func(x, y float64) float64 { return x * y }
	v0 := func(x, y float64) float64 { return x * y * 1.10 }
	v1 := func(x, y float64) float64 { return x * y * 1.01 }
	f, err := green.NewFunc2(green.Func2Config{
		Name: "hot2d", Model: m, SLA: 0.02, SampleInterval: sampleInterval,
	}, precise, []green.Fn2{v0, v1})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFunc2HotPath measures the two-parameter controller's Call
// overhead — after the generic-controller unification it shares the
// same lock-free hot path as Loop, with the same 0 allocs/op target.
func BenchmarkFunc2HotPath(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		f := hotFunc2Fixture(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += f.Call(3, 4)
		}
		_ = sink
	})
	b.Run("monitored1k", func(b *testing.B) {
		f := hotFunc2Fixture(b, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += f.Call(3, 4)
		}
		_ = sink
	})
}

// hotLoopSelector calibrates a one-bucket selector over the hot model's
// knots, so the selector-installed benchmark measures a warm Select
// lookup (it resolves to the same M=8 level the reactive law picks).
func hotLoopSelector(b *testing.B) *green.BucketSelector {
	b.Helper()
	cal, err := green.NewLoopCalibration("hot", []float64{4, 8}, hotLoopBound, hotLoopBound)
	if err != nil {
		b.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 10}); err != nil {
		b.Fatal(err)
	}
	feat := green.Features{Key: 5, Valid: true}
	for i := 0; i < 3; i++ {
		if err := cal.AddRunFeat(feat, []float64{0.10, 0.01}, []float64{4, 8}); err != nil {
			b.Fatal(err)
		}
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

// BenchmarkLoopExecFeat measures the feature-threading entry point of
// the staged pipeline. "steady" installs no selector, so ExecFeat must
// cost what Begin costs (check.sh holds this row at 0 allocs/op);
// "selector" adds the warm per-input Select-stage bucket lookup.
func BenchmarkLoopExecFeat(b *testing.B) {
	run := func(installSelector bool) func(*testing.B) {
		return func(b *testing.B) {
			loop := hotLoopFixture(b, 0)
			if installSelector {
				loop.InstallSelector(hotLoopSelector(b))
			}
			feat := green.Features{Key: 5, Valid: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := loop.ExecFeat(hotQoS{}, feat)
				if err != nil {
					b.Fatal(err)
				}
				j := 0
				for ; j < hotLoopBound && e.Continue(j); j++ {
				}
				e.Finish(j)
			}
		}
	}
	b.Run("steady", run(false))
	b.Run("selector", run(true))
}

// batchSize is the batch the throughput benchmarks amortize over —
// matching the acceptance target (steady ExecN at batch 64).
const batchSize = 64

// BenchmarkLoopExecN measures the batched execution tier: one op is one
// batch member, so ns/op compares directly with BenchmarkLoopHotPath's
// per-execution cost. The batch pays the snapshot load, the sampling
// decision, and the breaker consult once per 64 members.
func BenchmarkLoopExecN(b *testing.B) {
	run := func(sampleInterval int) func(*testing.B) {
		return func(b *testing.B) {
			loop := hotLoopFixture(b, sampleInterval)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := batchSize
				if rem := b.N - done; rem < n {
					n = rem
				}
				bt, err := loop.ExecN(n, hotQoS{})
				if err != nil {
					b.Fatal(err)
				}
				for bt.Next() {
					i := 0
					for ; i < hotLoopBound && bt.Continue(i); i++ {
					}
					bt.End(i)
				}
				bt.Finish()
				done += n
			}
		}
	}
	b.Run("steady", run(0))
	b.Run("monitored1k", run(1000))
}

// hotFuncFixture builds a one-parameter function controller whose range
// model always qualifies the cheapest version, so steady-state calls
// are pure controller overhead (the Func analogue of hotLoopFixture).
// key is FuncConfig.Key: nil keys the model on the argument itself.
func hotFuncFixture(b *testing.B, sampleInterval int, key func(float64) float64) *green.Func {
	b.Helper()
	fm := benchExpModel(b)
	f, err := green.NewFunc(green.FuncConfig{
		Name: "hotfn", Model: fm, SLA: 0.01, SampleInterval: sampleInterval, Key: key,
	}, math.Exp, []core.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
		approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFuncHotPath measures the single-call function tier — the
// controller around one Taylor exp, Figure 2's call site — with the
// model keyed on the argument itself (nilkey) and through a
// programmer-supplied Key (key), steady and at a 0.1% monitoring duty
// cycle. The arguments stay inside the ranges the model approximates
// (all four Taylor grades, never math.Exp), so the body is ~4 ns and
// the rest is the controller.
func BenchmarkFuncHotPath(b *testing.B) {
	var xs [batchSize]float64
	for i := range xs {
		xs[i] = -1.4 + 1.4*float64(i)/batchSize
	}
	run := func(sampleInterval int, key func(float64) float64) func(*testing.B) {
		return func(b *testing.B) {
			f := hotFuncFixture(b, sampleInterval, key)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += f.Call(xs[i%batchSize])
			}
			_ = sink
		}
	}
	ident := func(x float64) float64 { return x }
	b.Run("steady/nilkey", run(0, nil))
	b.Run("steady/key", run(0, ident))
	b.Run("monitored1k/nilkey", run(1000, nil))
	b.Run("monitored1k/key", run(1000, ident))
}

// BenchmarkFuncHotPathParallel shares one steady hot Func among
// GOMAXPROCS goroutines. RunParallel hands each goroutine its iterations
// in batches, so no harness counter is shared per call: run at -cpu 1
// and -cpu 2, the two rows show what the controller's own shared state
// costs when two Ps call one Func.
func BenchmarkFuncHotPathParallel(b *testing.B) {
	var xs [batchSize]float64
	for i := range xs {
		xs[i] = -1.4 + 1.4*float64(i)/batchSize
	}
	f := hotFuncFixture(b, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		for i := 0; pb.Next(); i++ {
			sink += f.Call(xs[i%batchSize])
		}
		_ = sink
	})
}

// BenchmarkFuncOverhead is the §4.1 overhead claim for functions: bare
// math.Exp against a Disabled Func around it, over the same inputs. The
// ratio disabled/bare is what a call site pays for being approximable
// while approximation is off.
func BenchmarkFuncOverhead(b *testing.B) {
	var xs [batchSize]float64
	for i := range xs {
		xs[i] = -1.4 + 1.4*float64(i)/batchSize
	}
	f, err := green.NewFunc(green.FuncConfig{
		Name: "exp", Model: benchExpModel(b), SLA: 0.01, Disabled: true,
	}, math.Exp, []core.Fn{approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
		approxmath.ExpTaylor(5), approxmath.ExpTaylor(6)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += math.Exp(xs[i%batchSize])
		}
		_ = sink
	})
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += f.Call(xs[i%batchSize])
		}
		_ = sink
	})
}

// BenchmarkFuncCallN measures the batched function tier against the
// per-call path: one op is one element of a 64-element CallN.
func BenchmarkFuncCallN(b *testing.B) {
	var xs, ys [batchSize]float64
	for i := range xs {
		xs[i] = -2 + 2*float64(i)/batchSize
	}
	run := func(sampleInterval int) func(*testing.B) {
		return func(b *testing.B) {
			f := hotFuncFixture(b, sampleInterval, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				if err := f.CallN(xs[:], ys[:]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("steady", run(0))
	b.Run("monitored1k", run(1000))
}

// BenchmarkFunc2CallN is BenchmarkFuncCallN for the two-parameter
// controller.
func BenchmarkFunc2CallN(b *testing.B) {
	var xs, ys, zs [batchSize]float64
	for i := range xs {
		xs[i] = 0.5 + 9*float64(i)/batchSize
		ys[i] = 9.5 - 9*float64(i)/batchSize
	}
	run := func(sampleInterval int) func(*testing.B) {
		return func(b *testing.B) {
			f := hotFunc2Fixture(b, sampleInterval)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				if err := f.CallN(xs[:], ys[:], zs[:]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("steady", run(0))
	b.Run("monitored1k", run(1000))
}

// BenchmarkLoopHotPathParallel hammers one shared Loop from g goroutines,
// the contention shape of a serving deployment.
func BenchmarkLoopHotPathParallel(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, g := range counts {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			loop := hotLoopFixture(b, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			var wg sync.WaitGroup
			var firstErr atomic.Value
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						if err := runHotExec(loop, hotQoS{}); err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := firstErr.Load(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchNullRW discards the response body through a preallocated header
// map so the benchmark measures the serve path, not the recorder.
type benchNullRW struct{ h http.Header }

func (w *benchNullRW) Header() http.Header         { return w.h }
func (w *benchNullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *benchNullRW) WriteHeader(int)             {}

// BenchmarkServeQPS measures the full warm /search request path —
// routing, query-cache hit, controller-guarded scan, ranking, JSON
// encode — one op per request. The inverse of ns/op is the
// single-goroutine QPS ceiling; the monitored sample interval is pushed
// out of reach so the row tracks the steady path the zero-alloc gate
// (internal/serve TestServeWarmPathZeroAlloc) protects.
func BenchmarkServeQPS(b *testing.B) {
	s, err := serve.New(serve.Config{Seed: 7, CalibrationQueries: 60,
		CorpusDocs: 2000, SampleInterval: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/search?q=alpha+beta", nil)
	w := &benchNullRW{h: make(http.Header, 4)}
	for i := 0; i < 16; i++ {
		h.ServeHTTP(w, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkServeMonitored is the warm /search path with every request
// monitored (SampleInterval 1) and the record point inside the scan:
// five-word queries (the first matches ~3650 of 20000 documents) against
// a level M near 700. One op per request.
//
//   - memo repeats one query: after the first request its precise page is
//     memoised on the cached query, so the scan stops at the record point
//     and the QoS adapter compares its snapshot with the memo.
//   - reference cycles 64 queries through an 8-entry query cache (each of
//     its eight one-entry shards takes six or more of them), so every
//     request misses it, parses its query, and scans on past M
//     until its page is final (Scan.Final; at the latest, exhaustion).
func BenchmarkServeMonitored(b *testing.B) {
	for _, c := range []struct {
		name           string
		queries, cache int
	}{{"memo", 1, 0}, {"reference", 64, 8}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := serve.New(serve.Config{Seed: 7, CalibrationQueries: 60,
				CorpusDocs: 20000, SampleInterval: 1, QueryCacheSize: c.cache})
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			reqs := make([]*http.Request, c.queries)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/search?q=w%d+w%d+w%d+w%d+w%d", i, i+3, i+9, i+1, i+12), nil)
			}
			w := &benchNullRW{h: make(http.Header, 4)}
			for i := 0; i < 16; i++ {
				h.ServeHTTP(w, reqs[i%len(reqs)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, reqs[i%len(reqs)])
			}
		})
	}
}

// BenchmarkNewEngine builds the synthetic corpus at the two sizes the
// benchmark's search workloads boot on. NewEngine returns the live engine
// of an equal Config, so each iteration collects the last one with the
// timer stopped, and fails if it survived: the row would time a lookup.
// It runs before BenchmarkServeBand, whose fixture holds the 200k corpus
// for the rest of the binary. hit is the call that finds its engine live.
func BenchmarkNewEngine(b *testing.B) {
	for _, c := range []struct {
		name string
		docs int
	}{{"20k", 20000}, {"200k", 200000}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var last weak.Pointer[search.Engine]
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
				if last.Value() != nil {
					b.Fatal("the last engine is still live: this iteration would not build")
				}
				b.StartTimer()
				e, err := search.NewEngine(search.Config{Seed: 7, Docs: c.docs})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				last = weak.Make(e)
			}
		})
	}
	b.Run("hit", func(b *testing.B) {
		live, err := search.NewEngine(search.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e, _ := search.NewEngine(search.Config{Seed: 7}); e != live {
				b.Fatal("a live engine was built again")
			}
		}
	})
}

var (
	kernelOnce   sync.Once
	kernelEngine *search.Engine
	kernelErr    error
)

// BenchmarkScanKernel drives every query as /search does: up to
// scanKernelDocs documents — the level the serve calibration lands on
// for a 200k-document corpus — in grants of scanKernelBlock, the value
// of internal/serve's scanBlock.
const (
	scanKernelDocs  = 9444
	scanKernelBlock = 2048
)

// scanKernelRun scores up to scanKernelDocs documents of s in StepN
// grants of block.
func scanKernelRun(s *search.Scan, block int) {
	for left := scanKernelDocs; left > 0; {
		n := s.StepN(min(left, block))
		left -= n
		if n < block {
			break
		}
	}
}

// BenchmarkScanKernel measures the scan/rank kernel alone on a
// 200k-document engine, in ns per scored document. The terms=N rows
// replay one query of the N most frequent post-stopword terms (posting
// lists of comparable length, a union's worst case), one Step at a time
// and in serve-sized blocks; replaying keeps the query's quality entries
// and impact tables cache-resident, which a request's are not, so the
// stream and band rows run a few thousand distinct one- to three-term
// queries in turn — the number a /search request pays. stream draws
// terms Zipf over the post-stopword vocabulary, band the way /search
// traffic lands (bandQueries).
func BenchmarkScanKernel(b *testing.B) {
	kernelOnce.Do(func() {
		kernelEngine, kernelErr = search.NewEngine(search.Config{Seed: 42, Docs: 200000})
	})
	if kernelErr != nil {
		b.Fatal(kernelErr)
	}
	e := kernelEngine
	run := func(name string, qs []search.Query, block int) {
		b.Run(name, func(b *testing.B) {
			scan := e.NewScan(qs[0], 10)
			docs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan.Reset(e, qs[i%len(qs)], 10)
				scanKernelRun(scan, block)
				docs += scan.Processed()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(docs), "ns/doc")
		})
	}
	for terms := 1; terms <= 3; terms++ {
		q := search.Query{}
		for t := 0; t < terms; t++ {
			q.Terms = append(q.Terms, e.StopTerms()+t)
		}
		run(fmt.Sprintf("terms=%d/step", terms), []search.Query{q}, 1)
		run(fmt.Sprintf("terms=%d/block", terms), []search.Query{q}, scanKernelBlock)
	}
	stream, err := e.GenerateQueries(77, 4096)
	if err != nil {
		b.Fatal(err)
	}
	run("stream", stream, scanKernelBlock)
	run("band", bandQueries(e, 78, 4096), scanKernelBlock)
}

// bandQueries draws n queries of 1–3 distinct terms uniform over the
// band /search traffic lands in — [StopTerms, StopTerms+Vocab/10), where
// serve's termsOf hashes words — rather than Zipf over the whole
// post-stopword vocabulary as GenerateQueries does.
func bandQueries(e *search.Engine, seed int64, n int) []search.Query {
	rng := workload.NewRand(seed)
	qs := make([]search.Query, n)
	for i := range qs {
		for k := 1 + rng.Intn(3); len(qs[i].Terms) < k; {
			if t := e.StopTerms() + rng.Intn(e.Vocab()/10); !slices.Contains(qs[i].Terms, t) {
				qs[i].Terms = append(qs[i].Terms, t)
			}
		}
	}
	return qs
}

var (
	bandOnce   sync.Once
	bandServer *serve.Server
	bandErr    error
)

// BenchmarkServeBand is the in-process /search handler over the corpus
// and level serve_tail runs at — 200k documents, calibrated M — on 2048
// distinct one- to three-word queries in turn (termsOf hashes each word
// into the band), all resident in the query cache: the request path
// without net/http, so the scan kernel's share of a handler shows. One op
// per request.
func BenchmarkServeBand(b *testing.B) {
	bandOnce.Do(func() {
		bandServer, bandErr = serve.New(serve.Config{Seed: 7, CorpusDocs: 200000, SampleInterval: 1 << 30})
	})
	if bandErr != nil {
		b.Fatal(bandErr)
	}
	h := bandServer.Handler()
	rng := workload.NewRand(79)
	reqs := make([]*http.Request, 2048)
	for i := range reqs {
		words := make([]string, 1+rng.Intn(3))
		for j := range words {
			words[j] = fmt.Sprintf("w%d", rng.Intn(1<<20))
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, "/search?q="+strings.Join(words, "+"), nil)
	}
	w := &benchNullRW{h: make(http.Header, 4)}
	for _, r := range reqs { // fill the query cache and the pools
		h.ServeHTTP(w, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

// benchClusterTransport dispatches coordinator requests straight into
// worker handlers in-process, pooling its capture writers and caching
// the per-target request objects, so BenchmarkClusterScatter measures
// the coordinator's own scatter/parse/merge work rather than transport
// or recorder overhead.
type benchClusterTransport struct {
	handlers map[string]http.Handler
	targets  sync.Map // base -> *benchClusterTarget
	writers  sync.Pool
}

type benchClusterTarget struct {
	path string
	req  *http.Request
}

type benchCaptureRW struct {
	h    http.Header
	buf  []byte
	code int
}

func (w *benchCaptureRW) Header() http.Header { return w.h }
func (w *benchCaptureRW) Write(b []byte) (int, error) {
	w.buf = append(w.buf, b...)
	return len(b), nil
}
func (w *benchCaptureRW) WriteHeader(code int) { w.code = code }

func (t *benchClusterTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	h := t.handlers[base]
	if h == nil {
		return 0, buf, fmt.Errorf("bench transport: no handler for %s", base)
	}
	var tgt *benchClusterTarget
	if v, ok := t.targets.Load(base); ok && v.(*benchClusterTarget).path == path {
		tgt = v.(*benchClusterTarget)
	} else {
		tgt = &benchClusterTarget{path: path, req: httptest.NewRequest(method, base+path, nil)}
		t.targets.Store(base, tgt)
	}
	w, _ := t.writers.Get().(*benchCaptureRW)
	if w == nil {
		w = &benchCaptureRW{h: make(http.Header, 4)}
	}
	w.buf, w.code = buf[:0], http.StatusOK
	h.ServeHTTP(w, tgt.req)
	body, code := w.buf, w.code
	w.buf = nil
	t.writers.Put(w)
	return code, body, nil
}

// BenchmarkClusterScatter measures the coordinator's warm /search path
// — scatter across three shard workers, strict partial parsing, global
// merge, JSON encode — one op per federated request. The shard workers
// run their own warm paths in-process, so the row tracks the whole
// federation stack; the coordinator's own contribution is bounded by
// the check.sh allocation gate (the shard request's path string and the
// query echo are the only per-request allocations: shard calls run on
// parked scatter workers and on the handler's own goroutine).
func BenchmarkClusterScatter(b *testing.B) {
	bt := &benchClusterTransport{handlers: make(map[string]http.Handler)}
	var shards []cluster.ShardSpec
	for i := 0; i < 3; i++ {
		s, err := serve.New(serve.Config{Seed: 7, CalibrationQueries: 60,
			CorpusDocs: 2000, SampleInterval: 1 << 30, ShardIndex: i, ShardCount: 3})
		if err != nil {
			b.Fatal(err)
		}
		base := fmt.Sprintf("http://s%d", i)
		bt.handlers[base] = s.Handler()
		shards = append(shards, cluster.ShardSpec{
			Name: fmt.Sprintf("s%d", i), Replicas: []string{base}})
	}
	co, err := cluster.New(cluster.Config{Shards: shards, Transport: bt, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	h := co.Handler()
	req := httptest.NewRequest(http.MethodGet, "/search?q=alpha+beta", nil)
	w := &benchNullRW{h: make(http.Header, 4)}
	for i := 0; i < 16; i++ {
		h.ServeHTTP(w, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkShardHop measures one coordinator→worker hop over a real
// loopback socket: HTTPTransport.Do against a net/http server answering
// with a shard-sized /search reply, on the transport as the coordinator
// builds it — a kept connection, one Write, one http.ReadResponse. About
// 18 of the row's allocations are the server's.
func BenchmarkShardHop(b *testing.B) {
	rep := wire.SearchReply{Query: "alpha beta", DocsScored: 512, Approximated: true}
	for i := 0; i < 10; i++ {
		rep.Docs = append(rep.Docs, 1000+37*i)
		rep.Scores = append(rep.Scores, 9.75-float64(i)/3)
	}
	page := rep.AppendJSON(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteRaw(w, page)
	}))
	defer srv.Close()
	b.Run("direct", func(b *testing.B) {
		tr := &cluster.HTTPTransport{Client: &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
		defer tr.CloseIdleConnections()
		path := wire.SearchPath("alpha+beta")
		var buf []byte
		hop := func() {
			status, body, err := tr.Do(context.Background(), http.MethodGet, srv.URL, path, nil, time.Now().Add(2*time.Second), buf[:0])
			if err != nil || status != http.StatusOK || len(body) != len(page) {
				b.Fatalf("status %d, %d bytes, err %v", status, len(body), err)
			}
			buf = body
		}
		for i := 0; i < 16; i++ {
			hop()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hop()
		}
	})
}

// combineSearchCandidates builds a units × perUnit candidate grid whose
// additive losses straddle the SLA, so branch-and-bound has work to do.
func combineSearchCandidates(units, perUnit int) [][]green.Setting {
	cands := make([][]green.Setting, units)
	for u := 0; u < units; u++ {
		for v := 0; v < perUnit; v++ {
			cands[u] = append(cands[u], green.Setting{
				Unit: u, Label: fmt.Sprintf("u%d/v%d", u, v),
				PredLoss: 0.001 + 0.002*float64(v),
				Speedup:  1 + 0.5*float64(perUnit-1-v),
			})
		}
	}
	return cands
}

// BenchmarkCombineSearchSpace measures the §3.4.1 combination search over
// a 5-unit, 4-candidate space (1024 combinations exhaustively) on the
// additive estimate, whose branch-and-bound cut measures 512 of them.
func BenchmarkCombineSearchSpace(b *testing.B) {
	cands := combineSearchCandidates(5, 4)
	const sla = 0.02
	b.Run("additive", func(b *testing.B) {
		evaluated := 0
		for i := 0; i < b.N; i++ {
			res, err := green.CombineSearch(cands, sla, nil)
			if err != nil {
				b.Fatal(err)
			}
			evaluated = res.Evaluated
		}
		b.ReportMetric(float64(evaluated), "combos/op")
	})
}

// BenchmarkBackoffConvergence measures a full global-recalibration
// convergence episode on the synthetic interacting units (§3.4.2).
func BenchmarkBackoffConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mk := func(name string) *green.Loop {
			pts := []model.CalPoint{
				{Level: 100, QoSLoss: 0.02, Work: 100},
				{Level: 800, QoSLoss: 0.002, Work: 800},
			}
			m, err := model.BuildLoopModel(name, pts, 1600, 1600)
			if err != nil {
				b.Fatal(err)
			}
			l, err := green.NewLoop(green.LoopConfig{Name: name, Model: m, SLA: 0.02, Step: 100})
			if err != nil {
				b.Fatal(err)
			}
			return l
		}
		l1, l2 := mk("u1"), mk("u2")
		app, err := green.NewApp(green.AppConfig{SLA: 0.02, Seed: int64(i)}, l1, l2)
		if err != nil {
			b.Fatal(err)
		}
		for obs := 0; obs < 20; obs++ {
			loss := 2.0/l1.Level() + 2.0/l2.Level()
			if l1.Level() < 250 && l2.Level() < 250 {
				loss *= 4
			}
			if loss <= 0.02 {
				break
			}
			app.ObserveAppQoS(loss)
		}
	}
}

// BenchmarkZipfNext is one draw of the term sampler: the corpus
// generator's (1.4 over a 2000-term vocabulary, wholly tabled) and one
// with a long untabled tail.
func BenchmarkZipfNext(b *testing.B) {
	for _, c := range []struct {
		name string
		s    float64
		n    uint64
	}{{"1.4x2000", 1.4, 2000}, {"1.01x100k", 1.01, 100000}} {
		b.Run(c.name, func(b *testing.B) {
			z, err := workload.NewZipf(1, c.s, c.n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Next()
			}
		})
	}
}

// BenchmarkNewZipf is the constructor at the largest range the tree
// builds; the threshold tables are its cost.
func BenchmarkNewZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.NewZipf(1, 1.01, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuncCallDFT takes the DFT's approximated cosine apart, with
// the controller bench/app_kernels.go builds: what one precise call
// costs, what the caller's Key costs, what the graded polynomial the 1e-4
// SLA selects costs bare, and what Call costs around them, disabled and
// approximating. Each row runs on two sets of the transform's angles
// (N = 128): unreduced, 2π/N·k·t up to ≈ 792 as dft.Transform built them
// before it carried k·t mod N, and exact, 2π/N·(k·t mod N) in [0, 2π) as
// it builds them now. The transform row is one dft.Transform through that
// Func, sin taken from cos as app_kernels does. ROADMAP item 4's
// workload half reads the verdict off these rows.
func BenchmarkFuncCallDFT(b *testing.B) {
	const n = 128
	w := 2 * math.Pi / n
	var unreduced, exact []float64
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			unreduced = append(unreduced, w*float64(k)*float64(t))
			exact = append(exact, w*float64(k*t%n))
		}
	}
	mod2pi := func(x float64) float64 {
		y := math.Mod(x, 2*math.Pi)
		if y < 0 {
			y += 2 * math.Pi
		}
		return y
	}
	absQoS := func(p, a float64) float64 { return math.Abs(a - p) }
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
		b.Fatal(err)
	}
	if err := cal.Calibrate(math.Cos, cosFns, workload.UniformFloats(7, 4000, 0, 2*math.Pi), absQoS); err != nil {
		b.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		b.Fatal(err)
	}
	call := func(disabled bool) func(float64) float64 {
		f, err := green.NewFunc(green.FuncConfig{
			Name: "cos", Model: m, SLA: 1e-4, QoS: absQoS, Key: mod2pi, Disabled: disabled,
		}, math.Cos, cosFns)
		if err != nil {
			b.Fatal(err)
		}
		return f.Call
	}
	for _, set := range []struct {
		name   string
		angles []float64
	}{{"unreduced", unreduced}, {"exact", exact}} {
		for _, row := range []struct {
			name string
			fn   func(float64) float64
		}{
			{"math.Cos", math.Cos},
			{"key_mod2pi", mod2pi},
			{"grade_5.2", approxmath.CosFn(approxmath.Trig52)},
			{"call_disabled", call(true)},
			{"call_approx", call(false)},
		} {
			b.Run(set.name+"/"+row.name, func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += row.fn(set.angles[i%(n*n)])
				}
				_ = sink
			})
		}
	}
	b.Run("transform", func(b *testing.B) {
		cos := call(false)
		trig := dft.Trig{Sin: func(x float64) float64 { return cos(x - math.Pi/2) }, Cos: cos}
		sig := workload.Signal(3, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dft.Transform(sig, trig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

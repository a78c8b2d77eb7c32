// MUTANT (nondet, from examples/renderer): training cameras seeded from the wall clock: two calibrations of the same binary build different models, and parallel calibration stops being bit-identical.
//
// The renderer example reproduces the paper's 252.eon scenario with the
// *adaptive* flavor of loop approximation: a Monte-Carlo path tracer
// refines the image one sample-per-pixel pass at a time, and the pass
// loop terminates when the QoS improvement per period drops below the
// model-derived target — the law of diminishing returns (§2.2.2).
//
// Run it with:
//
//	go run ./examples/renderer
package main

import (
	"fmt"
	"log"
	"time"

	"green"
	"green/internal/metrics"
	"green/internal/raytracer"
)

const (
	width, height = 24, 18
	basePasses    = 100 // the precise version's sample budget (N=10)
	pixelSLA      = 0.035
	trainCameras  = 8
	testCameras   = 6
)

// renderQoS adapts an incremental render to green.DeltaQoS. The QoS
// metric is the current framebuffer; Delta reports how much the image
// moved since the previous measurement period, Record/Loss compare the
// would-be early image against the completed one.
type renderQoS struct {
	r        *raytracer.Renderer
	recorded []float64
	prev     []float64
}

func (q *renderQoS) Record(int) {
	q.recorded = q.r.Snapshot().Pix
}

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

func main() {
	scene := raytracer.NewScene(1)

	// --- Calibration over training cameras ---------------------------
	knots := []float64{16, 25, 36, 49, 64, 81}
	cal, err := green.NewLoopCalibration("render.passes", knots, basePasses,
		basePasses*width*height*3)
	if err != nil {
		log.Fatal(err)
	}
	// movements[k] accumulates the per-period image movement observed at
	// knot k across training cameras; the adaptive TargetDelta is
	// calibrated from it (the runtime improvement signal is image
	// movement, which lives on a different scale than distance-to-final).
	movements := make([]float64, len(knots))
	for c := 0; c < trainCameras; c++ {
		cam := raytracer.RandomCamera(time.Now().UnixNano()) // want "time.Now in calibration code"
		ref, _, err := raytracer.Render(scene, cam, width, height, basePasses, int64(c))
		if err != nil {
			log.Fatal(err)
		}
		r, err := raytracer.NewRenderer(scene, cam, width, height, int64(c))
		if err != nil {
			log.Fatal(err)
		}
		losses := make([]float64, len(knots))
		work := make([]float64, len(knots))
		var prevSnap []float64
		for i, k := range knots {
			for r.Passes() < int(k) {
				r.Pass()
			}
			snap := r.Snapshot().Pix
			d, err := metrics.PixelDiff(ref.Pix, snap)
			if err != nil {
				log.Fatal(err)
			}
			losses[i] = d
			work[i] = float64(r.Rays())
			if prevSnap != nil {
				mv, err := metrics.PixelDiff(prevSnap, snap)
				if err != nil {
					log.Fatal(err)
				}
				movements[i] += mv
			}
			prevSnap = snap
		}
		if err := cal.AddRun(losses, work); err != nil {
			log.Fatal(err)
		}
	}
	m, err := cal.Build()
	if err != nil {
		log.Fatal(err)
	}

	loop, err := green.NewLoop(green.LoopConfig{
		Name: "render.passes", Model: m, SLA: pixelSLA, Mode: green.Adaptive,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Re-express TargetDelta in the runtime improvement metric: the mean
	// inter-knot image movement observed around the SLA's static M.
	ap := loop.Adaptive()
	mStatic := loop.Level()
	idx := len(knots) - 1
	for i, k := range knots {
		if k >= mStatic {
			idx = i
			break
		}
	}
	if idx == 0 {
		idx = 1
	}
	ap.Period = knots[idx] - knots[idx-1]
	ap.TargetDelta = movements[idx] / trainCameras
	if err := loop.SetAdaptive(ap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive parameters for SLA %.1f%%: floor M=%.0f passes, period=%.0f, target delta=%.4f\n",
		pixelSLA*100, ap.M, ap.Period, ap.TargetDelta)

	// --- Operational phase on unseen cameras -------------------------
	var totalPasses, totalLoss float64
	for c := 0; c < testCameras; c++ {
		cam := raytracer.RandomCamera(int64(100 + c))
		r, err := raytracer.NewRenderer(scene, cam, width, height, int64(200+c))
		if err != nil {
			log.Fatal(err)
		}
		exec, err := loop.Begin(&renderQoS{r: r})
		if err != nil {
			log.Fatal(err)
		}
		i := 0
		for ; i < basePasses && exec.Continue(i); i++ {
			r.Pass()
		}
		exec.Finish(i)
		early := r.Snapshot()

		// Ground truth for reporting: complete the render.
		for r.Passes() < basePasses {
			r.Pass()
		}
		d, err := metrics.PixelDiff(r.Snapshot().Pix, early.Pix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  camera %d: stopped after %3d/%d passes, pixel loss %.3f%%\n",
			c, i, basePasses, 100*d)
		totalPasses += float64(i)
		totalLoss += d
	}
	fmt.Printf("\nmean: %.0f/%d passes (%.0f%% of the work), mean pixel loss %.3f%% (SLA %.1f%%)\n",
		totalPasses/testCameras, basePasses,
		100*totalPasses/(testCameras*basePasses),
		100*totalLoss/testCameras, pixelSLA*100)
}

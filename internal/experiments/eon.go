package experiments

import (
	"fmt"

	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/raytracer"
	"green/internal/workload"
)

func init() {
	register("fig15", "252.eon versions: normalized execution time and energy", runFig15)
	register("fig16", "252.eon versions: QoS loss", runFig16)
	register("fig17", "252.eon QoS-model sensitivity to training-set size", runFig17)
}

// eonFixture is the shared path-tracer setup: one reference scene, many
// random-camera inputs, and a desktop-machine cost model.
type eonFixture struct {
	scene   *raytracer.Scene
	cameras []raytracer.Camera
	seeds   []int64
	w, h    int
	baseN   int // base version sends baseN^2 samples per pixel
	cost    *energy.CostModel
	workers int // goroutines measuring inputs
}

// eonVersionNs lists the approximated versions of Figures 15/16: the main
// loop is capped at N^2 ray passes for N = 5..9; the base uses 10^2.
var eonVersionNs = []int{5, 6, 7, 8, 9}

const eonBaseN = 10

func newEonFixture(o Options) *eonFixture {
	nInputs := o.scaled(100, 4)
	f := &eonFixture{
		scene: raytracer.NewScene(workload.Split(o.Seed, 200)),
		w:     16, h: 12,
		baseN: eonBaseN, workers: o.Workers,
		// Desktop machine: 120 W idle, 1.5 microseconds of CPU per ray,
		// small fixed per-frame setup cost.
		cost: &energy.CostModel{
			IdleWatts:    120,
			FixedSeconds: 0.002,
			FixedJoules:  0.05,
			UnitSeconds:  map[string]float64{"ray": 1.5e-6},
			UnitJoules:   map[string]float64{"ray": 1.2e-4},
		},
	}
	for i := 0; i < nInputs; i++ {
		f.cameras = append(f.cameras, raytracer.RandomCamera(workload.Split(o.Seed, 201+int64(i))))
		f.seeds = append(f.seeds, workload.Split(o.Seed, 301+int64(i)))
	}
	return f
}

// sweep renders every input once, incrementally, to the base pass count,
// snapshotting the frame as it crosses each version's N^2 passes; every
// snapshot is judged against the finished frame. Work is rays traced.
func (f *eonFixture) sweep() (*sweep, error) {
	var names []string
	var knots []float64
	for _, n := range eonVersionNs {
		names = append(names, fmt.Sprintf("N=%d", n))
		knots = append(knots, float64(n*n))
	}
	basePasses := f.baseN * f.baseN
	sw, err := measureAll(f.workers, len(f.cameras), names, func(i int, loss, work []float64) (float64, error) {
		r, err := raytracer.NewRenderer(f.scene, f.cameras[i], f.w, f.h, f.seeds[i])
		if err != nil {
			return 0, err
		}
		frames := make([]*raytracer.Image, len(knots))
		for l, knot := range knots {
			for r.Passes() < int(knot) {
				r.Pass()
			}
			frames[l], work[l] = r.Snapshot(), float64(r.Rays())
		}
		for r.Passes() < basePasses {
			r.Pass()
		}
		base := r.Snapshot()
		for l, frame := range frames {
			loss[l] = frameLoss(base, frame)
		}
		return float64(r.Rays()), nil
	})
	if err != nil {
		return nil, err
	}
	raysPerPass := float64(f.w * f.h * 3) // approximate mean incl. bounces
	sw.loop, sw.knots = "eon.passes", knots
	sw.baseLevel, sw.baseWork = float64(basePasses), float64(basePasses)*raysPerPass
	return sw, nil
}

// frameLoss is the eon QoS: the mean normalized pixel difference of a
// frame from the base rendering of the same input (both come off one
// renderer, so their sizes cannot differ).
func frameLoss(base, frame *raytracer.Image) float64 {
	d, err := metrics.PixelDiff(base.Pix, frame.Pix)
	if err != nil {
		panic(err)
	}
	return d
}

func runFig15(o Options) (*Table, error) {
	f := newEonFixture(o)
	sw, err := f.sweep()
	if err != nil {
		return nil, err
	}
	reps, base := sw.reports(f.cost, "ray")
	t := perfTable([]string{"version", "norm. exec time", "norm. energy"},
		append(sw.names, "Base"), append(reps, base), base, seconds, joules)
	t.AddNote("base sends %d^2 = %d samples per pixel; N=k sends k^2", f.baseN, f.baseN*f.baseN)
	t.AddNote("%d random-camera inputs at %dx%d", len(f.cameras), f.w, f.h)
	return t, nil
}

func runFig16(o Options) (*Table, error) {
	sw, err := newEonFixture(o).sweep()
	if err != nil {
		return nil, err
	}
	t := lossTable(append(sw.names, "Base"), append(sw.means(), 0))
	t.AddNote("QoS loss = mean normalized pixel difference vs the base rendering")
	return t, nil
}

func runFig17(o Options) (*Table, error) {
	sw, err := newEonFixture(o).sweep()
	if err != nil {
		return nil, err
	}
	total := len(sw.base)
	sizes := []int{max(2, total/10), max(3, total/5), max(4, total/2), total}
	// The paper estimates at N=9.
	t, err := trainingSizeTable("training inputs", "estimated QoS loss at N=9", sw, sizes, 9*9)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: 10 vs 100 training inputs differ by only 0.12%%")
	return t, nil
}

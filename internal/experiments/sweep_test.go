package experiments

import (
	"testing"

	"green/internal/cga"
	"green/internal/metrics"
	"green/internal/raytracer"
)

// The streaming sweeps must measure exactly what running every input from
// scratch at every level measures: Engine.Search, raytracer.Render and
// GA.Run survive in their packages as the references for that.
func TestSweepMatchesReruns(t *testing.T) {
	check := func(t *testing.T, sw *sweep, inputs int, rerun func(i, l int) (loss, work float64), base func(i int) float64) {
		t.Helper()
		if len(sw.base) < inputs {
			t.Fatalf("sweep has %d inputs, want at least %d", len(sw.base), inputs)
		}
		for i := 0; i < inputs; i++ {
			if got, want := sw.base[i], base(i); got != want {
				t.Errorf("input %d: base work %v, rerun %v", i, got, want)
			}
			for l, name := range sw.names {
				loss, work := rerun(i, l)
				if sw.loss[i][l] != loss || sw.work[i][l] != work {
					t.Errorf("input %d at %s: sweep (loss %v, work %v), rerun (loss %v, work %v)",
						i, name, sw.loss[i][l], sw.work[i][l], loss, work)
				}
			}
		}
	}

	t.Run("search", func(t *testing.T) {
		f, err := newSearchFixture(Options{Seed: 7, Scale: 0.05}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		queries := f.calQueries[:40]
		sw, err := f.calibrationSweep(queries)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sw, len(queries), func(i, l int) (float64, float64) {
			precise, _ := f.engine.Search(queries[i], f.topN, 0)
			page, docs := f.engine.Search(queries[i], f.topN, int(sw.knots[l]))
			return metrics.QueryLoss(precise, page), float64(docs)
		}, func(i int) float64 {
			_, docs := f.engine.Search(queries[i], f.topN, 0)
			return float64(docs)
		})

		// The standard version set adds M-PRO: rerun it as its own scan,
		// one Step at a time.
		f.tstQueries = f.tstQueries[:40]
		n := float64(f.refN)
		std, err := f.sweep(f.tstQueries, []string{"M-10N", "M-N", "M-2N", "M-PRO"}, []float64{10 * n, n, 2 * n}, f.refN/2)
		if err != nil {
			t.Fatal(err)
		}
		early := 0
		for i, base := range std.base {
			if std.work[i][len(std.knots)] < base {
				early++
			}
		}
		if early == 0 {
			t.Error("M-PRO never stopped before the scan ran out: its comparison is vacuous")
		}
		check(t, std, len(f.tstQueries), func(i, l int) (float64, float64) {
			q := f.tstQueries[i]
			precise, _ := f.engine.Search(q, f.topN, 0)
			if l < len(std.knots) {
				page, docs := f.engine.Search(q, f.topN, int(std.knots[l]))
				return metrics.QueryLoss(precise, page), float64(docs)
			}
			s := f.engine.NewScan(q, f.topN)
			var prev []int
			for {
				advanced := false
				for k := 0; k < f.refN/2 && s.Step(); k++ {
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
			return metrics.QueryLoss(precise, s.TopN()), float64(s.Processed())
		}, func(i int) float64 {
			_, docs := f.engine.Search(f.tstQueries[i], f.topN, 0)
			return float64(docs)
		})
	})

	t.Run("eon", func(t *testing.T) {
		f := newEonFixture(Options{Seed: 42, Scale: 0.03}.withDefaults())
		sw, err := f.sweep()
		if err != nil {
			t.Fatal(err)
		}
		render := func(i, passes int) (*raytracer.Image, float64) {
			img, rays, err := raytracer.Render(f.scene, f.cameras[i], f.w, f.h, passes, f.seeds[i])
			if err != nil {
				t.Fatal(err)
			}
			return img, float64(rays)
		}
		const inputs = 3
		var bases [inputs]*raytracer.Image
		var baseRays [inputs]float64
		for i := range bases {
			bases[i], baseRays[i] = render(i, f.baseN*f.baseN)
		}
		check(t, sw, inputs, func(i, l int) (float64, float64) {
			frame, rays := render(i, eonVersionNs[l]*eonVersionNs[l])
			loss, err := metrics.PixelDiff(bases[i].Pix, frame.Pix)
			if err != nil {
				t.Fatal(err)
			}
			return loss, rays
		}, func(i int) float64 { return baseRays[i] })
	})

	t.Run("cga", func(t *testing.T) {
		f, sw, err := cgaSweep(Options{Seed: 42, Scale: 0.12}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		run := func(i, generations int) (span, evals float64) {
			ga, err := cga.New(f.graphs[i], cga.Config{Seed: f.seeds[i]})
			if err != nil {
				t.Fatal(err)
			}
			span, err = ga.Run(generations)
			if err != nil {
				t.Fatal(err)
			}
			return span, float64(ga.Evaluations())
		}
		check(t, sw, 3, func(i, l int) (float64, float64) {
			base, _ := run(i, f.baseG)
			span, evals := run(i, int(sw.knots[l]))
			return metrics.RelativeRegret(base, span), evals
		}, func(i int) float64 {
			_, evals := run(i, f.baseG)
			return evals
		})
	})
}

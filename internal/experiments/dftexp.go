package experiments

import (
	"fmt"

	"green/internal/approxmath"
	"green/internal/dft"
	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/workload"
)

func init() {
	register("fig21", "DFT versions: normalized execution time and energy", runFig21)
	register("fig22", "DFT versions: QoS loss", runFig22)
}

// dftFixture holds the DFT experiment setup: 100 random signals and the
// desktop cost model. One (k, t) sample-pair of the O(N^2) transform
// costs dftBodyTerms term-equivalents of non-trigonometric work plus the
// selected grades' polynomial terms for one cos and one sin.
type dftFixture struct {
	signals [][]float64
	n       int
	cost    *energy.CostModel
	workers int // goroutines measuring signals
}

const dftBodyTerms = 77.0

func newDFTFixture(o Options) *dftFixture {
	nSignals := o.scaled(100, 6)
	f := &dftFixture{
		n: 96, workers: o.Workers,
		cost: &energy.CostModel{
			IdleWatts:    120,
			FixedSeconds: 1e-4,
			FixedJoules:  0.002,
			UnitSeconds:  map[string]float64{"term": 2e-9},
			UnitJoules:   map[string]float64{"term": 2.5e-10},
		},
	}
	for i := 0; i < nSignals; i++ {
		f.signals = append(f.signals, workload.Signal(workload.Split(o.Seed, 700+int64(i)), f.n))
	}
	return f
}

// dftVersion selects the trig grades: cosGrade always approximated in
// C(d) versions; sinGrade equals TrigPrecise for C(d) and cosGrade for
// C+S(d).
type dftVersion struct {
	name     string
	cosGrade approxmath.TrigGrade
	sinGrade approxmath.TrigGrade
}

// dftVersionSet is the Figure 21/22 sweep: C(d) and C+S(d) for every
// grade.
func dftVersionSet() []dftVersion {
	var out []dftVersion
	for _, g := range approxmath.TrigGrades {
		out = append(out, dftVersion{
			name: fmt.Sprintf("C(%s)", g), cosGrade: g, sinGrade: approxmath.TrigPrecise,
		})
	}
	for _, g := range approxmath.TrigGrades {
		out = append(out, dftVersion{
			name: fmt.Sprintf("C+S(%s)", g), cosGrade: g, sinGrade: g,
		})
	}
	return out
}

// terms is the simulated work of one transform under the given grades.
func (f *dftFixture) terms(cos, sin approxmath.TrigGrade) float64 {
	return (float64(cos.Terms()+sin.Terms()) + dftBodyTerms) * float64(f.n) * float64(f.n)
}

// sweep transforms every signal precisely once and then under each
// version, judging each version's spectra against the precise ones.
func (f *dftFixture) sweep(versions []dftVersion) (*sweep, error) {
	names := make([]string, len(versions))
	for l, v := range versions {
		names[l] = v.name
	}
	return measureAll(f.workers, len(f.signals), names, func(i int, loss, work []float64) (float64, error) {
		preciseRe, preciseIm, err := dft.Transform(f.signals[i], dft.PreciseTrig())
		if err != nil {
			return 0, err
		}
		for l, v := range versions {
			re, im, err := dft.Transform(f.signals[i], dft.Trig{
				Sin: approxmath.SinFn(v.sinGrade),
				Cos: approxmath.CosFn(v.cosGrade),
			})
			if err != nil {
				return 0, err
			}
			lr, err := metrics.RMSNormDiff(preciseRe, re)
			if err != nil {
				return 0, err
			}
			li, err := metrics.RMSNormDiff(preciseIm, im)
			if err != nil {
				return 0, err
			}
			loss[l], work[l] = (lr+li)/2, f.terms(v.cosGrade, v.sinGrade)
		}
		return f.terms(approxmath.TrigPrecise, approxmath.TrigPrecise), nil
	})
}

func runFig21(o Options) (*Table, error) {
	f := newDFTFixture(o)
	sw, err := f.sweep(dftVersionSet())
	if err != nil {
		return nil, err
	}
	reps, base := sw.reports(f.cost, "term")
	t := perfTable([]string{"version", "norm. exec time", "norm. energy"},
		append(sw.names, "Base"), append(reps, base), base, seconds, joules)
	t.AddNote("%d random signals of %d samples; base trig accuracy 23.1 digits (library)",
		len(f.signals), f.n)
	return t, nil
}

func runFig22(o Options) (*Table, error) {
	sw, err := newDFTFixture(o).sweep(dftVersionSet())
	if err != nil {
		return nil, err
	}
	t := lossTable(append(sw.names, "Base"), append(sw.means(), 0))
	t.AddNote("QoS loss = mean normalized difference of output spectra vs base")
	return t, nil
}

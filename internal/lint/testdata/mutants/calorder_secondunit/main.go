// MUTANT (calorder, from examples/dftfilter): the second unit is registered after the first observation: sensitivity ranking ran without it and its backoff state starts mid-flight.
//
// The dftfilter example reproduces the paper's signal-processing
// scenario: a Discrete Fourier Transform whose sin/cos kernel is replaced
// by graded polynomial approximations. Green's function calibration
// measures each grade's QoS loss, and the model picks the cheapest grade
// meeting the SLA.
//
// Run it with:
//
//	go run ./examples/dftfilter
package main

import (
	"fmt"
	"log"
	"math"

	"green"
	"green/internal/approxmath"
	"green/internal/dft"
	"green/internal/metrics"
	"green/internal/workload"
)

const (
	signalLen = 128
	nSignals  = 40
	qosSLA    = 1e-4 // per-call absolute error budget
)

func main() {
	// --- Calibration: per-grade loss of cos over the DFT's argument
	// domain [0, 2*pi*k*t/N mod 2pi) --------------------------------
	var fns []green.Fn
	var names []string
	var work []float64
	for _, g := range approxmath.TrigGrades {
		fns = append(fns, green.Fn(approxmath.CosFn(g)))
		names = append(names, "cos("+g.String()+")")
		work = append(work, float64(g.Terms()))
	}
	cal, err := green.NewFuncCalibration("cos", float64(approxmath.TrigPrecise.Terms()),
		names, work, math.Pi/8)
	if err != nil {
		log.Fatal(err)
	}
	args := workload.UniformFloats(3, 4000, 0, 2*math.Pi)
	// Absolute-error QoS: cos crosses zero, so relative error is the
	// wrong metric for trig kernels.
	absQoS := func(p, a float64) float64 { return math.Abs(a - p) }
	if err := cal.Calibrate(math.Cos, fns, args, absQoS); err != nil {
		log.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cos grades (digits, per-call polynomial terms, max calibrated loss):")
	for i, v := range m.Versions {
		worst := 0.0
		for _, s := range v.Samples {
			if s.Loss > worst {
				worst = s.Loss
			}
		}
		fmt.Printf("  %-9s terms=%-2.0f maxErr=%.2e\n", names[i], v.Work, worst)
		_ = i
	}

	// The model's range selection: with a uniform error curve the whole
	// domain picks one grade — the cheapest meeting the SLA.
	// The DFT evaluates trig at angles far beyond 2*pi; Key reduces them
	// into the calibrated period so the model's ranges apply everywhere.
	mod2pi := func(x float64) float64 {
		y := math.Mod(x, 2*math.Pi)
		if y < 0 {
			y += 2 * math.Pi
		}
		return y
	}
	cosFunc, err := green.NewFunc(green.FuncConfig{
		Name: "cos", Model: m, SLA: qosSLA, QoS: absQoS, Key: mod2pi,
	}, math.Cos, fns)
	if err != nil {
		log.Fatal(err)
	}
	svc := struct{ app *green.App }{}
	if svc.app, err = green.NewApp(green.AppConfig{Name: "dft", SLA: 0.01}); err != nil {
		log.Fatal(err)
	}
	sinFunc, err := green.NewFunc(green.FuncConfig{
		Name: "sin", Model: m, SLA: qosSLA, QoS: absQoS, Key: mod2pi,
	}, math.Cos, fns)
	if err != nil {
		log.Fatal(err)
	}
	svc.app.Register(cosFunc)
	svc.app.ObserveAppQoS(0)
	svc.app.Register(sinFunc) // want "App.Register after ObserveAppQoS"
	chosen := map[string]bool{}
	for _, r := range cosFunc.Ranges() {
		chosen[m.VersionName(r.Version)] = true
	}
	fmt.Printf("\nSLA %.0e -> selected grade(s): %v\n", qosSLA, keys(chosen))

	// --- Run DFTs with the precise kernel and the Green-selected one --
	trigApprox := dft.Trig{
		Sin: func(x float64) float64 { return cosFunc.Call(x - math.Pi/2) },
		Cos: cosFunc.Call,
	}
	var lossSum float64
	var termsPrecise, termsApprox float64
	for s := 0; s < nSignals; s++ {
		sig := workload.Signal(int64(100+s), signalLen)
		reP, imP, err := dft.Transform(sig, dft.PreciseTrig())
		if err != nil {
			log.Fatal(err)
		}
		cosFunc.WorkReset()
		reA, imA, err := dft.Transform(sig, trigApprox)
		if err != nil {
			log.Fatal(err)
		}
		termsApprox += cosFunc.Work()
		termsPrecise += float64(dft.TrigCalls(signalLen)) * float64(approxmath.TrigPrecise.Terms())
		lr, err := metrics.RMSNormDiff(reP, reA)
		if err != nil {
			log.Fatal(err)
		}
		li, err := metrics.RMSNormDiff(imP, imA)
		if err != nil {
			log.Fatal(err)
		}
		lossSum += (lr + li) / 2
	}
	fmt.Printf("\n%d DFTs of %d samples:\n", nSignals, signalLen)
	fmt.Printf("  mean spectral loss      %.2e (SLA %.0e)\n", lossSum/nSignals, qosSLA)
	fmt.Printf("  trig polynomial terms   %.2e precise vs %.2e approximated (%.1f%% saved)\n",
		termsPrecise, termsApprox, 100*(1-termsApprox/termsPrecise))
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

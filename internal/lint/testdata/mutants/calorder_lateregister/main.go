// MUTANT (calorder, from examples/options): the unit joins an App that is already observing: the coordinator raised accuracy on an empty unit list and starts the unit with a stale low-QoS streak.
//
// The options example reproduces the paper's blackscholes scenario:
// function approximation of exp and log inside Black-Scholes option
// pricing, including the multi-approximation combination search of §3.4.1
// that selects the final exp/log pairing under an application-level SLA.
//
// Run it with:
//
//	go run ./examples/options
package main

import (
	"fmt"
	"log"
	"math"

	"green"
	"green/internal/approxmath"
	"green/internal/blackscholes"
	"green/internal/workload"
)

const (
	trainOptions  = 8000
	nativeOptions = 40000
	localSLA      = 0.01  // per-function QoS SLA
	appSLA        = 0.005 // application SLA: 0.5% mean price error
)

func main() {
	train := workload.Options(1, trainOptions)
	native := workload.Options(2, nativeOptions)

	// --- Calibration: exp over its observed argument range -----------
	expFns := []green.Fn{
		approxmath.ExpTaylor(3), approxmath.ExpTaylor(4),
		approxmath.ExpTaylor(5), approxmath.ExpTaylor(6),
	}
	expNames := []string{"exp(3)", "exp(4)", "exp(5)", "exp(6)"}
	expWork := []float64{4, 5, 6, 7}
	expCal, err := green.NewFuncCalibration("exp", 18, expNames, expWork, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	if err := expCal.Calibrate(math.Exp, expFns, blackscholes.ObservedExpArgs(train), nil); err != nil {
		log.Fatal(err)
	}
	expModel, err := expCal.Build()
	if err != nil {
		log.Fatal(err)
	}

	expFunc, err := green.NewFunc(green.FuncConfig{
		Name: "exp", Model: expModel, SLA: localSLA,
	}, math.Exp, expFns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exp approximation ranges (the generated QoS_Fn_Approx of Figure 7):")
	for _, r := range expFunc.Ranges() {
		fmt.Printf("  [%6.2f, %6.2f) -> %s\n", r.Lo, r.Hi, expModel.VersionName(r.Version))
	}

	// --- Candidate settings for the combination search ---------------
	logDegs := []int{2, 3, 4}
	basePrices, err := blackscholes.PricePortfolio(train, blackscholes.MathFns{})
	if err != nil {
		log.Fatal(err)
	}
	evalCombo := func(useExpCb bool, logDeg int) (loss, speedup float64) {
		fns := blackscholes.MathFns{}
		expTerms := 18.0
		if useExpCb {
			fns.Exp = expFunc.Call
			expFunc.WorkReset()
		}
		logTerms := 18.0
		if logDeg > 0 {
			fns.Log = approxmath.LogTaylor(logDeg)
			logTerms = float64(logDeg)
		}
		prices, err := blackscholes.PricePortfolio(train, fns)
		if err != nil {
			log.Fatal(err)
		}
		sum := 0.0
		for i := range prices {
			denom := math.Abs(basePrices[i])
			if denom < 0.01 {
				denom = 0.01
			}
			l := math.Abs(prices[i]-basePrices[i]) / denom
			if l > 1 {
				l = 1
			}
			sum += l
		}
		loss = sum / float64(len(prices))
		const body = 150.0
		baseWork := float64(len(train)) * (3*18 + 18 + body)
		if useExpCb {
			expTerms = expFunc.Work() / (3 * float64(len(train)))
		}
		work := float64(len(train)) * (3*expTerms + logTerms + body)
		return loss, baseWork / work
	}

	expCands := []green.Setting{
		{Unit: 0, Label: "exp(cb)"},
		{Unit: 0, Label: "precise-exp"},
	}
	var logCands []green.Setting
	for _, d := range logDegs {
		logCands = append(logCands, green.Setting{Unit: 1, Label: fmt.Sprintf("log(%d)", d)})
	}
	logCands = append(logCands, green.Setting{Unit: 1, Label: "precise-log"})

	res, err := green.CombineSearch([][]green.Setting{expCands, logCands}, appSLA,
		func(combo []green.Setting) (float64, float64, error) {
			useCb := combo[0].Label == "exp(cb)"
			deg := 0
			fmt.Sscanf(combo[1].Label, "log(%d)", &deg)
			l, s := evalCombo(useCb, deg)
			return l, s, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncombination search over %d combos selected: %s + %s\n",
		res.Evaluated, res.Best[0].Label, res.Best[1].Label)
	fmt.Printf("  measured training loss %.3f%%, estimated speedup %.2fx\n",
		100*res.Loss, res.Speedup)

	app, err := green.NewApp(green.AppConfig{Name: "options", SLA: appSLA})
	if err != nil {
		log.Fatal(err)
	}
	app.ObserveAppQoS(res.Loss)
	app.Register(expFunc) // want "App.Register after ObserveAppQoS"

	// --- Deploy the winner on the native portfolio -------------------
	fns := blackscholes.MathFns{}
	if res.Best[0].Label == "exp(cb)" {
		fns.Exp = expFunc.Call
	}
	if deg := 0; true {
		fmt.Sscanf(res.Best[1].Label, "log(%d)", &deg)
		if deg > 0 {
			fns.Log = approxmath.LogTaylor(deg)
		}
	}
	nativeBase, err := blackscholes.PricePortfolio(native, blackscholes.MathFns{})
	if err != nil {
		log.Fatal(err)
	}
	nativeApprox, err := blackscholes.PricePortfolio(native, fns)
	if err != nil {
		log.Fatal(err)
	}
	sum, worst := 0.0, 0.0
	for i := range nativeBase {
		denom := math.Abs(nativeBase[i])
		if denom < 0.01 {
			denom = 0.01
		}
		l := math.Abs(nativeApprox[i]-nativeBase[i]) / denom
		if l > 1 {
			l = 1
		}
		sum += l
		if l > worst {
			worst = l
		}
	}
	fmt.Printf("\nnative portfolio (%d options): mean price error %.3f%%, worst %.2f%% (SLA %.1f%%)\n",
		len(native), 100*sum/float64(len(native)), 100*worst, 100*appSLA)
}

// Command greencal runs the Green calibration phase for one of the
// evaluation applications and writes the constructed QoS model as JSON —
// the artifact the paper's MATLAB modeling step produces, which the
// operational phase later loads.
//
// Usage:
//
//	greencal -app search              # print the search loop model
//	greencal -app exp -o exp.json     # save the blackscholes exp model
//	greencal -list                    # list calibratable applications
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"green/internal/experiments"
	"green/internal/model"
)

func main() {
	var (
		app     = flag.String("app", "", "application to calibrate (see -list)")
		seed    = flag.Int64("seed", 42, "workload seed")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		workers = flag.Int("workers", 1, "goroutines measuring training inputs concurrently (same model for any value)")
		out     = flag.String("o", "", "output file (default stdout)")
		list    = flag.Bool("list", false, "list calibratable applications")
		sla     = flag.Float64("sla", 0, "also resolve the model for this QoS SLA in (0,1] (prints the selected parameters to stderr)")
	)
	flag.Parse()
	slaSet := false
	flag.Visit(func(f *flag.Flag) { slaSet = slaSet || f.Name == "sla" })
	if slaSet && !(*sla > 0 && *sla <= 1) {
		fmt.Fprintf(os.Stderr, "greencal: -sla %v outside (0,1]\n", *sla)
		os.Exit(2)
	}

	if *list {
		for _, a := range experiments.CalibratableApps() {
			fmt.Println(a)
		}
		return
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "greencal: -app required (or -list)")
		os.Exit(2)
	}
	m, err := experiments.Calibrate(*app, experiments.Options{Seed: *seed, Scale: *scale, Workers: *workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "greencal: %v\n", err)
		os.Exit(1)
	}
	if slaSet {
		resolve(m, *sla)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "greencal: encode: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "greencal: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "greencal: wrote %s model to %s\n", *app, *out)
}

// resolve prints the model's answer for a target SLA — the paper's
// QoS_Model_Loop / QoS_Model_Func interfaces made visible.
func resolve(m any, sla float64) {
	switch mm := m.(type) {
	case *model.LoopModel:
		lvl, err := mm.StaticParams(sla)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greencal: SLA %.4f: static: %v\n", sla, err)
		} else {
			fmt.Fprintf(os.Stderr, "greencal: SLA %.4f -> static M = %.0f (%.2fx speedup, predicted loss %.4f)\n",
				sla, lvl, mm.Speedup(lvl), mm.PredictLoss(lvl))
		}
		if ap, err := mm.AdaptiveParamsFor(sla); err == nil {
			fmt.Fprintf(os.Stderr, "greencal: SLA %.4f -> adaptive <M=%.0f, period=%.0f, target delta=%.5f>\n",
				sla, ap.M, ap.Period, ap.TargetDelta)
		}
	case *model.FuncModel:
		for _, r := range mm.Ranges(sla) {
			fmt.Fprintf(os.Stderr, "greencal: SLA %.4f -> [%.3f, %.3f): %s\n",
				sla, r.Lo, r.Hi, mm.VersionName(r.Version))
		}
	default:
		fmt.Fprintf(os.Stderr, "greencal: cannot resolve SLA for model type %T\n", m)
	}
}

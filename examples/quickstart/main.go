// The quickstart example reproduces the paper's end-to-end illustration
// (Figure 3): approximating the main loop of a pi-estimation program.
//
// It walks through the full Green workflow:
//
//  1. calibration phase — run the precise loop on training "inputs",
//     recording the QoS loss early termination would have caused;
//  2. model construction — build the QoS model and invert it for a
//     user-specified SLA;
//  3. operational phase — run the approximated loop;
//  4. runtime recalibration — monitored executions measure the real loss
//     and adjust the approximation level.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"green"
)

const (
	baseIterations = 200000
	qosSLA         = 1e-4 // tolerate 0.01% error in the pi estimate
)

// piSeries memoizes the Leibniz partial sums so any prefix estimate is a
// lookup: est(n) = 4 * sum_{i<n} (-1)^i / (2i+1).
type piSeries struct {
	sums []float64
}

func newPiSeries(n int) *piSeries {
	s := &piSeries{sums: make([]float64, n+1)}
	sign := 1.0
	for i := 0; i < n; i++ {
		s.sums[i+1] = s.sums[i] + sign/float64(2*i+1)
		sign = -sign
	}
	return s
}

func (s *piSeries) estimate(iter int) float64 {
	if iter >= len(s.sums) {
		iter = len(s.sums) - 1
	}
	return 4 * s.sums[iter]
}

// piQoS is the programmer-supplied QoS_Compute of Figure 3: the QoS
// metric is the current estimate; loss is its normalized distance from
// the estimate at the loop's natural end.
type piQoS struct {
	series   *piSeries
	recorded float64
}

func (q *piQoS) Record(iter int) { q.recorded = q.series.estimate(iter) }
func (q *piQoS) Loss(iter int) float64 {
	final := q.series.estimate(iter)
	return math.Abs(q.recorded-final) / math.Abs(final)
}

func main() {
	series := newPiSeries(baseIterations)
	exact := series.estimate(baseIterations)

	// --- Calibration phase -------------------------------------------
	knots := []float64{1000, 2000, 5000, 10000, 20000, 50000, 100000}
	cal, err := green.NewLoopCalibration("pi.main", knots, baseIterations, baseIterations)
	if err != nil {
		log.Fatal(err)
	}
	losses := make([]float64, len(knots))
	work := make([]float64, len(knots))
	for i, k := range knots {
		losses[i] = math.Abs(series.estimate(int(k))-exact) / math.Abs(exact)
		work[i] = k
	}
	if err := cal.AddRun(losses, work); err != nil {
		log.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibration model (level -> predicted loss):")
	for _, k := range knots {
		fmt.Printf("  M=%-7.0f loss=%.3e  speedup=%.1fx\n",
			k, m.PredictLoss(k), m.Speedup(k))
	}

	// --- Operational phase -------------------------------------------
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "pi.main", Model: m, SLA: qosSLA, Mode: green.Static,
		SampleInterval: 10, // monitor every 10th execution
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSLA %.0e -> model chose M = %.0f of %d iterations\n",
		qosSLA, loop.Level(), baseIterations)

	approximated, monitored := 0, 0
	for run := 0; run < 50; run++ {
		exec, err := loop.Begin(&piQoS{series: series})
		if err != nil {
			log.Fatal(err)
		}
		i := 0
		for ; i < baseIterations && exec.Continue(i); i++ {
			// The real program would do the work here; estimates are
			// memoized so the example stays fast.
		}
		res := exec.Finish(i)
		if res.Approximated {
			approximated++
		}
		if res.Monitored {
			monitored++
			fmt.Printf("  monitored run %2d: measured loss %.2e (SLA %.0e) -> %v\n",
				run, res.Loss, qosSLA, res.Recalibrated)
		}
	}
	executions, _, meanLoss := loop.Stats()
	fmt.Printf("\n%d executions: %d approximated, %d monitored, mean monitored loss %.2e\n",
		executions, approximated, monitored, meanLoss)

	finalM := int(loop.Level())
	trueLoss := math.Abs(series.estimate(finalM)-exact) / math.Abs(exact)
	fmt.Printf("final M = %d (%.1f%% of the precise loop), true loss %.2e\n",
		finalM, 100*float64(finalM)/baseIterations, trueLoss)
	fmt.Println(verdict(trueLoss, qosSLA))
}

// verdict states whether the run ends inside its SLA: "verdict: met", or
// "verdict: missed ×k", k the true loss over the SLA.
func verdict(loss, sla float64) string {
	if loss <= sla {
		return "verdict: met"
	}
	return fmt.Sprintf("verdict: missed ×%.2f", loss/sla)
}

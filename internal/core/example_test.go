package core_test

import (
	"fmt"
	"math"

	"green/internal/core"
	"green/internal/model"
)

// seriesQoS implements core.LoopQoS over a convergent series whose QoS
// metric is the partial sum.
type seriesQoS struct {
	partial  func(int) float64
	recorded float64
}

func (q *seriesQoS) Record(i int) { q.recorded = q.partial(i) }
func (q *seriesQoS) Loss(i int) float64 {
	final := q.partial(i)
	return math.Abs(q.recorded-final) / math.Abs(final)
}

// ExampleLoop shows the full operational protocol of an approx_loop: the
// controller decides termination, the loop body just asks Continue.
func ExampleLoop() {
	// A model calibrated offline: loss at iteration-count knots.
	m, err := model.BuildLoopModel("demo", []model.CalPoint{
		{Level: 100, QoSLoss: 0.01, Work: 100},
		{Level: 1000, QoSLoss: 0.0001, Work: 1000},
	}, 10000, 10000)
	if err != nil {
		panic(err)
	}
	loop, err := core.NewLoop(core.LoopConfig{
		Name: "demo", Model: m, SLA: 0.01, Mode: core.Static,
	})
	if err != nil {
		panic(err)
	}
	partial := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / (float64(i) * float64(i))
		}
		return sum
	}
	exec, err := loop.Begin(&seriesQoS{partial: partial})
	if err != nil {
		panic(err)
	}
	i := 0
	for ; i < 10000 && exec.Continue(i); i++ {
		// body
	}
	res := exec.Finish(i)
	fmt.Printf("terminated after %d of 10000 iterations (approximated=%v)\n",
		i, res.Approximated)
	// Output: terminated after 100 of 10000 iterations (approximated=true)
}

// ExampleFunc shows an approx_func controller selecting between
// approximate implementations per call.
func ExampleFunc() {
	m, err := model.BuildFuncModel("half", 10, []model.VersionCurve{
		{Name: "cheap", Work: 2, Samples: []model.FuncSample{
			{X: 0, Loss: 0.001}, {X: 10, Loss: 0.001},
		}},
	})
	if err != nil {
		panic(err)
	}
	precise := func(x float64) float64 { return x / 2 }
	cheap := func(x float64) float64 { return x * 0.5001 }
	f, err := core.NewFunc(core.FuncConfig{
		Name: "half", Model: m, SLA: 0.01,
	}, precise, []core.Fn{cheap})
	if err != nil {
		panic(err)
	}
	fmt.Printf("inside domain:  %.4f\n", f.Call(4))
	fmt.Printf("outside domain: %.4f\n", f.Call(40))
	// Output:
	// inside domain:  2.0004
	// outside domain: 20.0000
}

// ExampleWindowedPolicy demonstrates the recalibration rule: Figure 3's
// band on each loss with a window of one, and on the mean of each window
// otherwise.
func ExampleWindowedPolicy() {
	fig3 := &core.WindowedPolicy{Window: 1}
	for _, loss := range []float64{0.05, 0.019, 0.001} {
		fmt.Println(fig3.Observe(loss, 0.02).Action)
	}
	fig9 := &core.WindowedPolicy{Window: 4}
	for _, loss := range []float64{1, 0, 0, 0} {
		fmt.Printf("%+v\n", fig9.Observe(loss, 0.02))
	}
	// Output:
	// increase-accuracy
	// none
	// decrease-accuracy
	// {Action:none Monitor:true}
	// {Action:none Monitor:true}
	// {Action:none Monitor:true}
	// {Action:increase-accuracy Monitor:false}
}

// ExampleCombineSearch demonstrates the §3.4.1 exhaustive combination
// search with a measured evaluator.
func ExampleCombineSearch() {
	candidates := [][]core.Setting{
		{
			{Unit: 0, Label: "loop@M=N", PredLoss: 0.010, Speedup: 2},
			{Unit: 0, Label: "loop@precise", PredLoss: 0, Speedup: 1},
		},
		{
			{Unit: 1, Label: "exp(3)", PredLoss: 0.015, Speedup: 3},
			{Unit: 1, Label: "exp(4)", PredLoss: 0.004, Speedup: 2},
		},
	}
	eval := func(combo []core.Setting) (loss, speedup float64, err error) {
		sum := 0.0
		inv := 0.0
		for _, s := range combo {
			sum += s.PredLoss
			inv += 1 / s.Speedup
		}
		return sum, float64(len(combo)) / inv, nil
	}
	res, err := core.CombineSearch(candidates, 0.015, eval)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s + %s (loss %.3f)\n", res.Best[0].Label, res.Best[1].Label, res.Loss)
	// Output: loop@M=N + exp(4) (loss 0.014)
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"green/internal/model"
)

// driftTable is the committed behaviour of the loop's Correct stage
// under drifting inputs; TestDriftTable regenerates it and fails if the
// two differ.
const driftTable = "../../results/drift.txt"

// The synthetic loop: a calibrated loss curve read with model.KnotLoss
// (a first knot gap of 150 against an SLA level near 6 000, the shape of
// serve's knots), a precise loop of 20 000 iterations, and serve's
// monitoring: windows of 100 monitored executions every 400, judged
// against an SLA of 2 % on 0/1 losses.
var (
	driftLevels = []float64{100, 250, 500, 1000, 2500, 5000, 10000}
	driftLosses = []float64{0.5, 0.24, 0.14, 0.08, 0.038, 0.022, 0.0126}
)

const (
	driftBase     = 20000
	driftSLA      = 0.02
	driftInterval = 400
	driftWindow   = 100
	driftRun      = 40000 // executions per run
	driftReport   = 500   // unmonitored executions per reported window
	driftSeeds    = 5
	driftHard     = 1.25 // a drifted input needs M a quarter higher
)

// driftScenario is the level scale s of execution n of a run: an input
// at scale s loses at M what a calibration input loses at M/s.
type driftScenario struct {
	name  string
	scale func(n int) float64
}

var driftScenarios = []driftScenario{
	{"stationary", func(int) float64 { return 1 }},
	{"step", func(n int) float64 { return driftScale(n >= driftRun/2) }},
	{"ramp", func(n int) float64 { return 1 + (driftHard-1)*float64(n)/driftRun }},
	{"periodic", func(n int) float64 { return driftScale(n/4000%2 == 1) }},
}

// driftScale is the scale of a drifted input, or of a calibration one.
func driftScale(drifted bool) float64 {
	if drifted {
		return driftHard
	}
	return 1
}

// driftTruth is the probability that an execution stopped at level m of
// an input at scale s loses its result; the precise loop loses nothing.
func driftTruth(m, s float64) float64 {
	if m >= driftBase {
		return 0
	}
	return model.KnotLoss(driftLevels, driftLosses, driftBase, m/s)
}

// driftQoS is one execution's QoS_Compute: Loss draws the 0/1 loss of
// the recorded stop point, Delta is the curve's improvement over the
// last period.
type driftQoS struct {
	rng      *rand.Rand
	s        float64
	period   int
	recorded int
}

func (q *driftQoS) Record(i int) { q.recorded = i }
func (q *driftQoS) Loss(int) float64 {
	if q.rng.Float64() < driftTruth(float64(q.recorded), q.s) {
		return 1
	}
	return 0
}
func (q *driftQoS) Delta(i int) float64 {
	return driftTruth(float64(i-q.period), q.s) - driftTruth(float64(i), q.s)
}

// driftRow is one row's tallies over its seeds.
type driftRow struct {
	windows, outside int
	reentries        []int   // executions from the first window outside the band to re-entry
	changes, execs   int     // level changes, executions
	givenUp, unmon   float64 // Σ (iterations − oracle level)/base over unmonitored executions, their count
	stepShare        float64 // Σ |ΔM|/M over level changes
}

// runDrift runs one seed of a loop through a scenario. step 0 is the
// derived law; an explicit step is the paper's.
func runDrift(t *testing.T, m *model.LoopModel, mode LoopMode, step float64, sc driftScenario, seed int64, row *driftRow) {
	level, start := 0.0, 0
	l, err := NewLoop(LoopConfig{Name: "drift", Model: m, SLA: driftSLA, Mode: mode, SampleInterval: driftInterval,
		Policy: &WindowedPolicy{Window: driftWindow}, Step: step,
		OnEvent: func(e Event) {
			if e.Level != level {
				row.changes++
				row.stepShare += math.Abs(e.Level-level) / level
				level = e.Level
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	level = l.Level()
	oracle, err := m.StaticParams(driftSLA)
	if err != nil {
		t.Fatal(err)
	}
	q := &driftQoS{rng: rand.New(rand.NewSource(seed)), period: int(l.Adaptive().Period)}
	sum, k, out := 0.0, 0, -1 // the open window's loss sum and size; where the run outside the band began
	for n := range driftRun {
		q.s = sc.scale(n)
		e, err := l.Begin(q)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for i < driftBase {
			d := e.ContinueN(i, driftBase-i)
			if d == 0 {
				break
			}
			i += d
		}
		if res := e.Finish(i); !res.Monitored {
			sum += driftTruth(float64(i), q.s)
			row.givenUp += (float64(i) - q.s*oracle) / driftBase
			row.unmon++
			k++
		}
		if k < driftReport {
			continue
		}
		row.windows++
		switch above := sum/float64(k) > driftSLA; {
		case above && out < 0:
			row.outside++
			out = start
		case above:
			row.outside++
		case out >= 0:
			row.reentries = append(row.reentries, n+1-out)
			out = -1
		}
		sum, k, start = 0, 0, n+1
	}
	if out >= 0 { // still outside at the end: censored at the run's length
		row.reentries = append(row.reentries, driftRun-out)
	}
	row.execs += driftRun
}

// TestDriftTable runs the loop in static and adaptive mode, under the
// paper's fixed step (the first knot gap, what a derived step was before
// the drift law) and under the derived law, through four scenarios of
// five seeds each. In static mode the derived law must keep fewer
// windows outside the SLA and re-enter the band sooner in every
// scenario; in adaptive mode, where M is only the floor and TargetDelta
// decides the stop, it must keep no more outside. What the law costs is
// in the table, not held to a bound: 0/1 losses judged over windows of
// 100 at a 2 % SLA ask for increases on noise alone, the derived law
// answers each with M/5 and walks back one gap at a time, so its
// stationary static row changes level more often than the paper's and
// gives up work above the oracle level.
func TestDriftTable(t *testing.T) {
	if testing.Short() {
		t.Skip("16 rows of 5 runs")
	}
	m, err := model.BuildLoopModel("drift", driftCalPoints(), driftBase, driftBase)
	if err != nil {
		t.Fatal(err)
	}
	gap := driftLevels[1] - driftLevels[0]
	var b strings.Builder
	fmt.Fprintf(&b, `# The loop's Correct stage under drifting inputs (TestDriftTable).
# Loss curve: model.KnotLoss over levels %v with losses %v,
# precise loop %d iterations; the model is calibrated on it exactly.
# An input at scale s loses at M what a calibration input loses at M/s;
# step: s = 1, then %g from the half; ramp: 1 to %g over the run;
# periodic: %g every other 4000 executions. Each execution's loss is a
# Bernoulli draw; SLA %g, a window of %d monitored executions every %d,
# %d executions a run, %d seeds a row.
# law: paper = the fixed step %g (the first knot gap) both ways; derived =
# step 0: raise M by max(gap, %g·M), lower it by the gap only where the
# corrected model allows.
# outside: share of windows of %d unmonitored executions whose mean true
# loss exceeds the SLA; reenter: mean executions from the first such
# window to the next one inside (censored at the run's end; - for none);
# changes: level changes per 1 000 executions; given_up: mean, over
# unmonitored executions, of iterations beyond the oracle level (the
# least M inside the SLA at that execution's s) over the precise loop's;
# step/M: mean |ΔM|/M over level changes.
# Regenerate: GREEN_DRIFT_OUT=$PWD/results/drift.txt go test -run '^TestDriftTable$' ./internal/core
scenario    mode      law      outside  reenter  changes  given_up  step/M
`, driftLevels, driftLosses, driftBase, driftHard, driftHard, driftHard, driftSLA, driftWindow, driftInterval,
		driftRun, driftSeeds, gap, raiseShare, driftReport)
	for _, sc := range driftScenarios {
		for _, mode := range []LoopMode{Static, Adaptive} {
			var rows [2]driftRow
			for j, step := range []float64{gap, 0} {
				for seed := int64(1); seed <= driftSeeds; seed++ {
					runDrift(t, m, mode, step, sc, seed, &rows[j])
				}
				b.WriteString(rows[j].format(sc.name, mode, [2]string{"paper", "derived"}[j]))
			}
			paper, derived := &rows[0], &rows[1]
			if derived.share() > paper.share() || mode == Static && derived.share() >= paper.share() {
				t.Errorf("%s %s: %.3f of the derived law's windows are outside the SLA, %.3f of the paper's",
					sc.name, mode, derived.share(), paper.share())
			}
			if mode == Static && derived.reenter() > paper.reenter() {
				t.Errorf("%s %s: the derived law re-enters the band in %d executions, the paper's in %d",
					sc.name, mode, derived.reenter(), paper.reenter())
			}
		}
	}
	if out := os.Getenv("GREEN_DRIFT_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(driftTable)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != b.String() {
		t.Fatalf("results/drift.txt is stale; regenerate it (see its header). Now:\n%s", b.String())
	}
}

// driftCalPoints is the calibration of the stationary curve: one point
// per knot, work the iterations run.
func driftCalPoints() []model.CalPoint {
	pts := make([]model.CalPoint, len(driftLevels))
	for i, lv := range driftLevels {
		pts[i] = model.CalPoint{Level: lv, QoSLoss: driftLosses[i], Work: lv}
	}
	return pts
}

func (r *driftRow) share() float64 { return float64(r.outside) / float64(r.windows) }

// reenter is the mean of the re-entry times (0 for none).
func (r *driftRow) reenter() int {
	sum := 0
	for _, n := range r.reentries {
		sum += n
	}
	return sum / max(1, len(r.reentries))
}

func (r *driftRow) format(scenario string, mode LoopMode, law string) string {
	reenter := "-"
	if len(r.reentries) > 0 {
		reenter = fmt.Sprintf("%d", r.reenter())
	}
	step := "-"
	if r.changes > 0 {
		step = fmt.Sprintf("%.3f", r.stepShare/float64(r.changes))
	}
	return fmt.Sprintf("%-11s %-9s %-7s %8.3f %8s %8.2f %9.3f %7s\n", scenario, mode, law, r.share(), reenter,
		1000*float64(r.changes)/float64(r.execs), r.givenUp/r.unmon, step)
}

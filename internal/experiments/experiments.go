// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the simulated substrates. Each experiment is
// registered under the paper's figure id and produces a Table whose rows
// are the series the figure plots.
//
// Absolute numbers differ from the paper (synthetic corpus, simulated
// power model, different hardware); the experiments reproduce the *shape*
// of each result: orderings, approximate improvement factors, crossovers,
// and convergence behavior. EXPERIMENTS.md records paper-vs-measured for
// each figure.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"green/internal/core"
	"green/internal/energy"
	"green/internal/model"
)

// Options control an experiment run.
type Options struct {
	// Seed determinizes workloads. Zero selects 42.
	Seed int64
	// Scale multiplies workload sizes (queries, inputs, generations).
	// 1.0 is the full configuration used for EXPERIMENTS.md; tests use
	// small scales. Zero selects 1.0.
	Scale float64
	// Workers bounds the goroutines used for the calibration phase's
	// training inputs (each input is measured independently; results are
	// merged in input order, so the built model is identical for any
	// value). Zero or one keeps calibration serial.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// scaled returns max(minimum, round(n*scale)).
func (o Options) scaled(n int, minimum int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < minimum {
		v = minimum
	}
	return v
}

// Table is one regenerated figure/table.
type Table struct {
	// ID is the experiment id, e.g. "fig10".
	ID string
	// Title describes the paper content being reproduced.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carry free-form observations (chosen combination, cutoff
	// points, convergence iteration...).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment's table.
type Runner func(Options) (*Table, error)

type registration struct {
	runner Runner
	title  string
}

var registry = map[string]registration{}

// register installs an experiment under its id; ids are registered by the
// per-experiment files' init functions.
func register(id, title string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = registration{runner: r, title: title}
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered description for an id.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by id.
func Run(id string, opts Options) (*Table, error) {
	reg, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	t, err := reg.runner(opts.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	t.ID = id
	if t.Title == "" {
		t.Title = reg.title
	}
	return t, nil
}

// pct formats a fraction as a percentage, normalizing negative zero.
func pct(f float64) string {
	if f == 0 {
		f = 0 // collapse -0
	}
	return fmt.Sprintf("%.2f%%", 100*f)
}

// norm formats a ratio as a normalized percentage (base = 100).
func norm(f float64) string { return fmt.Sprintf("%.1f", 100*f) }

// sweep is what one pass of every input through an application's precise
// loop measured: for input i, in input order, the QoS loss and the work of
// stopping at each level, and the work of running to the end. A fixture's
// sweep function is the only code that runs its kernel; every figure,
// calibration model and oracle is a projection of the value it returns.
type sweep struct {
	names      []string    // the levels as the figures label them
	loss, work [][]float64 // [input][level]
	base       []float64   // [input] work of the precise run

	// What a LoopCalibration over the levels needs besides the runs.
	loop                string
	knots               []float64
	baseLevel, baseWork float64
}

// measureAll calls measure for the inputs 0..n-1, on that many goroutines
// when workers is more than one; measure fills in the input's loss and
// work at each named level and returns its precise work. Every input
// owns its row, so the sweep is the same for any worker count; the first
// error in input order is returned.
func measureAll(workers, n int, names []string, measure func(i int, loss, work []float64) (base float64, err error)) (*sweep, error) {
	s := &sweep{names: names, loss: make([][]float64, n), work: make([][]float64, n), base: make([]float64, n)}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < max(1, min(workers, n)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				s.loss[i], s.work[i] = make([]float64, len(names)), make([]float64, len(names))
				s.base[i], errs[i] = measure(i, s.loss[i], s.work[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	return s, nil
}

// first returns the sweep of the first n inputs (all of them when there
// are fewer): nested training sets are prefixes of one measurement.
func (s *sweep) first(n int) *sweep {
	p := *s
	n = min(n, len(s.base))
	p.loss, p.work, p.base = s.loss[:n], s.work[:n], s.base[:n]
	return &p
}

// means returns the per-level QoS loss averaged over the inputs.
func (s *sweep) means() []float64 {
	out := make([]float64, len(s.names))
	for l := range out {
		for _, loss := range s.loss {
			out[l] += loss[l]
		}
		out[l] /= float64(len(s.loss))
	}
	return out
}

// reports prices the sweep under a cost model that charges its work in
// the given unit: one report per level and one for the precise runs, each
// over all inputs.
func (s *sweep) reports(cost *energy.CostModel, unit string) (levels []energy.Report, base energy.Report) {
	total := func(work func(i int) float64) energy.Report {
		acct := energy.NewAccount()
		for i := range s.base {
			acct.AddOp()
			acct.Add(unit, work(i))
		}
		return cost.Evaluate(acct)
	}
	levels = make([]energy.Report, len(s.names))
	for l := range levels {
		levels[l] = total(func(i int) float64 { return s.work[i][l] })
	}
	return levels, total(func(i int) float64 { return s.base[i] })
}

// calibration feeds the inputs, in input order, to a fresh calibration
// of the sweep's loop. With keys (one feature per input) the runs are
// also tagged into nb quantile buckets, for BuildSelector.
func (s *sweep) calibration(keys []float64, nb int) (*core.LoopCalibration, error) {
	cal, err := core.NewLoopCalibration(s.loop, s.knots, s.baseLevel, s.baseWork)
	if err != nil {
		return nil, err
	}
	if keys != nil {
		if err := cal.FeatureBuckets(quantileEdges(keys, nb)); err != nil {
			return nil, err
		}
	}
	for i := range s.base {
		if keys != nil {
			err = cal.AddRunFeat(core.Features{Key: keys[i], Valid: true}, s.loss[i], s.work[i])
		} else {
			err = cal.AddRun(s.loss[i], s.work[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return cal, nil
}

// model builds the loop's QoS model from the sweep's inputs.
func (s *sweep) model() (*model.LoopModel, error) {
	cal, err := s.calibration(nil, 0)
	if err != nil {
		return nil, err
	}
	return cal.Build()
}

// cheapest is the per-input oracle: the least work of any level whose
// loss on input i meets the SLA, or fallback when none does.
func (s *sweep) cheapest(i int, sla, fallback float64) float64 {
	best, found := fallback, false
	for l, loss := range s.loss[i] {
		if loss <= sla && (!found || s.work[i][l] < best) {
			best, found = s.work[i][l], true
		}
	}
	return best
}

// perfTable renders a normalised performance figure: one row per report,
// each metric as a percentage of the base report's.
func perfTable(cols, names []string, reps []energy.Report, base energy.Report, metrics ...func(energy.Report) float64) *Table {
	t := &Table{Columns: cols}
	for i, r := range reps {
		row := []string{names[i]}
		for _, m := range metrics {
			row = append(row, norm(m(r)/m(base)))
		}
		t.AddRow(row...)
	}
	return t
}

func seconds(r energy.Report) float64 { return r.Seconds }
func joules(r energy.Report) float64  { return r.Joules }

// trainingSizeTable renders a model-sensitivity figure: the loss at level
// that the model built from the first n inputs predicts, for each training
// size n, beside its distance from the largest size's prediction.
func trainingSizeTable(inputs, estimate string, sw *sweep, sizes []int, level float64) (*Table, error) {
	ests := make([]float64, len(sizes))
	for i, n := range sizes {
		m, err := sw.first(n).model()
		if err != nil {
			return nil, err
		}
		ests[i] = m.PredictLoss(level)
	}
	ref := ests[len(ests)-1]
	t := &Table{Columns: []string{inputs, estimate, "difference vs largest"}}
	for i, n := range sizes {
		t.AddRow(fmt.Sprintf("%d", n), pct(ests[i]), pct(math.Abs(ests[i]-ref)))
	}
	return t, nil
}

// lossTable renders a QoS-loss figure: one row per version.
func lossTable(names []string, losses []float64) *Table {
	t := &Table{Columns: []string{"version", "QoS loss"}}
	for i, name := range names {
		t.AddRow(name, pct(losses[i]))
	}
	return t
}

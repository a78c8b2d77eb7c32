package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"green/internal/model"
)

// LoopCalibration accumulates the calibration-phase measurements for one
// loop (the data behind the paper's Figure 6): for each training input,
// the QoS loss that early termination at each candidate level would have
// produced, and the work consumed up to that level.
//
// The calibration build of the program runs each training input through
// the *precise* loop, snapshotting QoS at the candidate levels
// (Calibrate_QoS in Figure 3) and comparing each snapshot against the
// final QoS.
type LoopCalibration struct {
	name      string
	knots     []float64
	baseLevel float64
	baseWork  float64
	lossSums  []float64
	lossSqs   []float64 // the second moment's sums, for each knot's spread
	workSums  []float64
	runs      int

	// The feature-tagged half (FeatureBuckets/AddRunFeat, feeding
	// BuildSelector): per feature bucket, the loss sum at every knot and
	// the runs tagged into it. A run adds every knot at once, so one
	// count per bucket covers its whole curve.
	edges      []float64
	bucketLoss [][]float64
	bucketRuns []int
}

// NewLoopCalibration prepares a collection over the given candidate
// termination levels (ascending). baseLevel/baseWork describe the precise
// loop (its natural iteration bound and full work).
func NewLoopCalibration(name string, knots []float64, baseLevel, baseWork float64) (*LoopCalibration, error) {
	if len(knots) == 0 {
		return nil, errors.New("core: calibration requires candidate levels")
	}
	ks := append([]float64(nil), knots...)
	sort.Float64s(ks)
	if ks[0] <= 0 {
		return nil, errors.New("core: candidate levels must be positive")
	}
	if baseLevel <= 0 || baseWork <= 0 {
		return nil, errors.New("core: base level and work must be positive")
	}
	return &LoopCalibration{
		name:      name,
		knots:     ks,
		baseLevel: baseLevel,
		baseWork:  baseWork,
		lossSums:  make([]float64, len(ks)),
		lossSqs:   make([]float64, len(ks)),
		workSums:  make([]float64, len(ks)),
	}, nil
}

// Knots returns the candidate levels (ascending).
func (c *LoopCalibration) Knots() []float64 {
	return append([]float64(nil), c.knots...)
}

// AddRun records one training input: losses[i] is the QoS loss of
// stopping at knot i, work[i] the work consumed up to knot i.
func (c *LoopCalibration) AddRun(losses, work []float64) error {
	if len(losses) != len(c.knots) || len(work) != len(c.knots) {
		return fmt.Errorf("core: calibration run arity mismatch: want %d knots", len(c.knots))
	}
	for i := range losses {
		if losses[i] < 0 || math.IsNaN(losses[i]) {
			return fmt.Errorf("core: invalid loss %v at knot %d", losses[i], i)
		}
		if work[i] < 0 {
			return fmt.Errorf("core: negative work at knot %d", i)
		}
		c.lossSums[i] += losses[i]
		c.lossSqs[i] += losses[i] * losses[i]
		c.workSums[i] += work[i]
	}
	c.runs++
	return nil
}

// FeatureBuckets declares the feature-bucket boundaries (ascending;
// bucket b spans [edges[b], edges[b+1]), the last bucket closed on the
// right) for feature-tagged calibration. Must be called before
// AddRunFeat.
func (c *LoopCalibration) FeatureBuckets(edges []float64) error {
	if err := validateBucketEdges(edges); err != nil {
		return err
	}
	c.edges = append([]float64(nil), edges...)
	c.bucketLoss = make([][]float64, len(edges)-1)
	for b := range c.bucketLoss {
		c.bucketLoss[b] = make([]float64, len(c.knots))
	}
	c.bucketRuns = make([]int, len(edges)-1)
	return nil
}

// AddRunFeat records one feature-tagged training input: AddRun's
// accumulation into the global model, plus accumulation into the
// feature bucket f.Key falls in. Inputs outside the declared buckets
// (or with invalid Features) still train the global model — the
// selector simply declines such inputs at run time.
func (c *LoopCalibration) AddRunFeat(f Features, losses, work []float64) error {
	if c.edges == nil {
		return errors.New("core: AddRunFeat before FeatureBuckets")
	}
	if err := c.AddRun(losses, work); err != nil {
		return err
	}
	if b := bucketOf(c.edges, f.Key); f.Valid && b >= 0 {
		for i, loss := range losses {
			c.bucketLoss[b][i] += loss
		}
		c.bucketRuns[b]++
	}
	return nil
}

// BuildSelector averages the feature-tagged runs into a BucketSelector
// over the knot grid, falling back to the base level, each bucket's curve
// forced into a monotone non-increasing envelope (more iterations never
// predict more loss) exactly as the global model's envelope is. Buckets
// that saw no runs get no curve — the selector declines their inputs and
// the pipeline falls back to the reactive level.
func (c *LoopCalibration) BuildSelector() (*BucketSelector, error) {
	if c.edges == nil {
		return nil, errors.New("core: BuildSelector before FeatureBuckets")
	}
	loss := make([][]float64, len(c.bucketRuns))
	found := false
	for b, n := range c.bucketRuns {
		if n == 0 {
			continue
		}
		curve := make([]float64, len(c.knots))
		for i := range curve {
			curve[i] = c.bucketLoss[b][i] / float64(n)
		}
		// Walking down from the most precise knot, loss may never
		// increase with level.
		for i := len(curve) - 2; i >= 0; i-- {
			curve[i] = max(curve[i], curve[i+1])
		}
		loss[b], found = curve, true
	}
	if !found {
		return nil, errors.New("core: no feature bucket has a tagged run")
	}
	return newBucketSelector(c.edges, c.Knots(), c.baseLevel, loss), nil
}

// Build averages the recorded runs into a LoopModel, each knot with the
// spread of its runs' losses (for 0/1 losses, √(p(1−p))).
func (c *LoopCalibration) Build() (*model.LoopModel, error) {
	if c.runs == 0 {
		return nil, model.ErrNoData
	}
	pts := make([]model.CalPoint, len(c.knots))
	for i := range c.knots {
		mean := c.lossSums[i] / float64(c.runs)
		pts[i] = model.CalPoint{
			Level:   c.knots[i],
			QoSLoss: mean,
			Work:    c.workSums[i] / float64(c.runs),
			Spread:  math.Sqrt(max(0, c.lossSqs[i]/float64(c.runs)-mean*mean)),
		}
	}
	return model.BuildLoopModel(c.name, pts, c.baseWork, c.baseLevel)
}

// FuncCalibration accumulates per-version (input, loss) samples for one
// approximable function — the data behind Figures 8(a) and 8(b). Samples
// are binned over the input domain and averaged per bin so the resulting
// curves are smooth even with many training calls.
type FuncCalibration struct {
	name        string
	preciseWork float64
	versions    []funcCalVersion
	binWidth    float64
}

type funcCalVersion struct {
	name string
	work float64
	bins map[int]*calBin
}

type calBin struct {
	lossSum float64
	n       int
}

// NewFuncCalibration prepares collection for versions named names[i] with
// per-call work work[i] (increasing precision order). binWidth controls
// input-domain binning.
func NewFuncCalibration(name string, preciseWork float64, names []string, work []float64, binWidth float64) (*FuncCalibration, error) {
	if len(names) == 0 || len(names) != len(work) {
		return nil, errors.New("core: version names and work must be non-empty and match")
	}
	if preciseWork <= 0 {
		return nil, errors.New("core: precise work must be positive")
	}
	if binWidth <= 0 {
		return nil, errors.New("core: bin width must be positive")
	}
	fc := &FuncCalibration{name: name, preciseWork: preciseWork, binWidth: binWidth}
	for i := range names {
		if work[i] <= 0 {
			return nil, fmt.Errorf("core: non-positive work for version %q", names[i])
		}
		fc.versions = append(fc.versions, funcCalVersion{
			name: names[i], work: work[i], bins: make(map[int]*calBin),
		})
	}
	return fc, nil
}

// AddSample records that version (index) called at input x showed the
// given fractional loss against the precise version.
func (c *FuncCalibration) AddSample(version int, x, loss float64) error {
	if version < 0 || version >= len(c.versions) {
		return fmt.Errorf("core: version index %d out of range", version)
	}
	if loss < 0 || math.IsNaN(loss) {
		return fmt.Errorf("core: invalid loss %v", loss)
	}
	bin := c.bin(x)
	b := c.versions[version].bins[bin]
	if b == nil {
		b = &calBin{}
		c.versions[version].bins[bin] = b
	}
	b.lossSum += loss
	b.n++
	return nil
}

// Calibrate runs every version against the precise function over the
// given inputs, using qos to compare results (nil = caller already added
// samples manually). It is the convenience driver of the calibration
// build for functions, and leaves the bins as AddSample per sample would
// (the samples before an invalid loss included), in fewer map operations:
// over a compact input range the samples accumulate into one dense row
// of bins per version, seeded from the bins already present, and adding
// them in input order keeps every sum bit-equal.
func (c *FuncCalibration) Calibrate(precise Fn, versions []Fn, inputs []float64, qos FuncQoS) error {
	if len(versions) != len(c.versions) {
		return fmt.Errorf("core: got %d implementations, want %d", len(versions), len(c.versions))
	}
	if qos == nil {
		qos = defaultFuncQoS
	}
	lo, span, ok := c.binSpan(inputs)
	if !ok {
		for _, x := range inputs {
			yp := precise(x)
			for v := range versions {
				if err := c.AddSample(v, x, qos(yp, versions[v](x))); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// dense[v*span+i] is version v's bin lo+i.
	dense := make([]calBin, len(versions)*span)
	for v := range c.versions {
		for bin, b := range c.versions[v].bins {
			if i := bin - lo; i >= 0 && i < span {
				dense[v*span+i] = *b
			}
		}
	}
	err := c.addDense(dense, lo, span, precise, versions, inputs, qos)
	for v := range c.versions {
		bins := c.versions[v].bins
		for i, b := range dense[v*span : (v+1)*span] {
			if b.n == 0 {
				continue
			}
			if p := bins[lo+i]; p != nil {
				*p = b
			} else {
				bins[lo+i] = &b
			}
		}
	}
	return err
}

// addDense is Calibrate's sample loop over dense bins, stopping at the
// first invalid loss with AddSample's error.
func (c *FuncCalibration) addDense(dense []calBin, lo, span int, precise Fn, versions []Fn, inputs []float64, qos FuncQoS) error {
	for _, x := range inputs {
		i := c.bin(x) - lo
		yp := precise(x)
		for v := range versions {
			loss := qos(yp, versions[v](x))
			if loss < 0 || math.IsNaN(loss) {
				return fmt.Errorf("core: invalid loss %v", loss)
			}
			b := &dense[v*span+i]
			b.lossSum += loss
			b.n++
		}
	}
	return nil
}

// bin is the input-domain bin x falls in.
func (c *FuncCalibration) bin(x float64) int { return int(math.Floor(x / c.binWidth)) }

// binSpan is the bin range [lo, lo+span) the inputs fall in; ok is false
// where dense bins do not pay: an input whose bin is not a finite,
// exactly representable index, or a range much wider than the inputs.
func (c *FuncCalibration) binSpan(inputs []float64) (lo, span int, ok bool) {
	if len(inputs) == 0 {
		return 0, 0, false
	}
	const limit = 1 << 52
	fmin, fmax := math.Inf(1), math.Inf(-1)
	for _, x := range inputs {
		f := math.Floor(x / c.binWidth)
		if !(f >= -limit && f <= limit) {
			return 0, 0, false
		}
		fmin, fmax = min(fmin, f), max(fmax, f)
	}
	if fmax-fmin >= float64(2*len(inputs)+64) {
		return 0, 0, false
	}
	return int(fmin), int(fmax-fmin) + 1, true
}

// Build averages the bins into a FuncModel.
func (c *FuncCalibration) Build() (*model.FuncModel, error) {
	curves := make([]model.VersionCurve, len(c.versions))
	for i, v := range c.versions {
		if len(v.bins) == 0 {
			return nil, fmt.Errorf("core: version %q has no samples", v.name)
		}
		samples := make([]model.FuncSample, 0, len(v.bins))
		for bin, b := range v.bins {
			samples = append(samples, model.FuncSample{
				X:    (float64(bin) + 0.5) * c.binWidth,
				Loss: b.lossSum / float64(b.n),
			})
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a].X < samples[b].X })
		curves[i] = model.VersionCurve{Name: v.name, Work: v.work, Samples: samples}
	}
	return model.BuildFuncModel(c.name, c.preciseWork, curves)
}

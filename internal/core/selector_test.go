package core

import (
	"math"
	"reflect"
	"testing"

	"green/internal/model"
)

// --- bucketOf / edge validation ---------------------------------------

func TestBucketOf(t *testing.T) {
	edges := []float64{0, 10, 20, 30}
	cases := []struct {
		key  float64
		want int
	}{
		{-0.1, -1}, // below the domain
		{30.1, -1}, // above the domain
		{0, 0},     // domain minimum opens the first bucket
		{5, 0},
		{10, 1}, // interior edges are right-open: the key opens the next bucket
		{19.9, 1},
		{20, 2},
		{29.9, 2},
		{30, 2}, // the final bucket is right-closed: the maximum stays selectable
	}
	for _, c := range cases {
		if got := bucketOf(edges, c.key); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestValidateBucketEdges(t *testing.T) {
	if err := validateBucketEdges([]float64{1}); err == nil {
		t.Error("single edge accepted")
	}
	if err := validateBucketEdges([]float64{0, math.NaN()}); err == nil {
		t.Error("NaN edge accepted")
	}
	if err := validateBucketEdges([]float64{0, math.Inf(1)}); err == nil {
		t.Error("Inf edge accepted")
	}
	if err := validateBucketEdges([]float64{0, 5, 5}); err == nil {
		t.Error("non-strictly-ascending edges accepted")
	}
	if err := validateBucketEdges([]float64{0, 5, 10}); err != nil {
		t.Errorf("valid edges rejected: %v", err)
	}
}

// --- correctFactor: the Correct-stage drift law -----------------------

func TestCorrectFactor(t *testing.T) {
	// Plain EWMA step: ratio 2 moves a quarter of the way up.
	if next, moved := correctFactor(1, 0.1, 0.2); !moved || math.Abs(next-1.25) > 1e-12 {
		t.Errorf("ratio 2: (%v, %v), want (1.25, true)", next, moved)
	}
	// Observed far below predicted: ratio clamps at model.CorrLo.
	if next, moved := correctFactor(1, 0.1, 0.0005); !moved || math.Abs(next-0.8125) > 1e-12 {
		t.Errorf("low clamp: (%v, %v), want (0.8125, true)", next, moved)
	}
	// Observed far above predicted: ratio clamps at model.CorrHi.
	if next, moved := correctFactor(1, 0.1, 10); !moved || math.Abs(next-1.75) > 1e-12 {
		t.Errorf("high clamp: (%v, %v), want (1.75, true)", next, moved)
	}
	// Loss observed where none was predicted: pushed toward the upper
	// clamp as if the ratio were model.CorrHi.
	if next, moved := correctFactor(1, 0, 0.05); !moved || math.Abs(next-1.75) > 1e-12 {
		t.Errorf("pred floor: (%v, %v), want (1.75, true)", next, moved)
	}
	// Agreement at zero: no information, no move.
	if _, moved := correctFactor(1, 0, 0); moved {
		t.Error("zero/zero agreement moved the factor")
	}
	// The factor itself clamps: already at the ceiling, pushing harder
	// does not move (and does not report a move).
	if _, moved := correctFactor(model.CorrHi, 0.1, 10); moved {
		t.Error("factor at model.CorrHi still moved upward")
	}
	if _, moved := correctFactor(model.CorrLo, 0.1, 0.0001); moved {
		t.Error("factor at model.CorrLo still moved downward")
	}
}

// --- loop kind: build, select, correct, persist -----------------------

// selectorFixture builds a two-bucket loop-kind selector over the
// testLoopModel knot grid: bucket 0 (keys [0,10)) needs level 800 to
// stay under a 0.05 SLA, bucket 1 (keys [10,20]) is satisfied at 100.
func selectorFixture(t *testing.T) *BucketSelector {
	t.Helper()
	knots := []float64{100, 200, 400, 800, 1600}
	cal, err := NewLoopCalibration("loop", knots, 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 10, 20}); err != nil {
		t.Fatal(err)
	}
	work := []float64{100, 200, 400, 800, 1600}
	heavy := []float64{0.40, 0.30, 0.20, 0.04, 0.01}
	light := []float64{0.02, 0.01, 0.005, 0.002, 0.001}
	for i := 0; i < 3; i++ {
		if err := cal.AddRunFeat(Features{Key: 5, Valid: true}, heavy, work); err != nil {
			t.Fatal(err)
		}
		if err := cal.AddRunFeat(Features{Key: 15, Valid: true}, light, work); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestLoopSelectorSelect(t *testing.T) {
	sel := selectorFixture(t)
	if sel.Buckets() != 2 {
		t.Fatalf("Buckets = %d, want 2", sel.Buckets())
	}
	if _, ok := sel.Select(Features{}, 0.05); ok {
		t.Error("invalid Features accepted")
	}
	if _, ok := sel.Select(Features{Key: 25, Valid: true}, 0.05); ok {
		t.Error("out-of-domain key accepted")
	}
	if lvl, ok := sel.Select(Features{Key: 5, Valid: true}, 0.05); !ok || lvl != 800 {
		t.Errorf("heavy bucket: (%v, %v), want (800, true)", lvl, ok)
	}
	if lvl, ok := sel.Select(Features{Key: 15, Valid: true}, 0.05); !ok || lvl != 100 {
		t.Errorf("light bucket: (%v, %v), want (100, true)", lvl, ok)
	}
	// No knot satisfies the SLA: fall back to the precise base level.
	if lvl, ok := sel.Select(Features{Key: 5, Valid: true}, 0.0001); !ok || lvl != 3200 {
		t.Errorf("unsatisfiable SLA: (%v, %v), want (3200, true)", lvl, ok)
	}
}

func TestLoopSelectorDeclinesEmptyBucket(t *testing.T) {
	cal, err := NewLoopCalibration("loop", []float64{100, 200}, 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 10, 20}); err != nil {
		t.Fatal(err)
	}
	// Only bucket 0 sees runs; bucket 1 stays curve-less.
	if err := cal.AddRunFeat(Features{Key: 5, Valid: true}, []float64{0.1, 0.01}, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.Select(Features{Key: 15, Valid: true}, 0.5); ok {
		t.Error("bucket with no calibration runs did not decline")
	}
	if sel.Correct(Features{Key: 15, Valid: true}, 100, 0.3) {
		t.Error("Correct moved a factor in a curve-less bucket")
	}
}

func TestLoopSelectorCorrect(t *testing.T) {
	sel := selectorFixture(t)
	f := Features{Key: 5, Valid: true}
	// The base level the selector falls back to carries no curve
	// prediction, so an observation there moves nothing (as the func kind
	// skips the precise version).
	if sel.Correct(f, 3200, 0.3) {
		t.Error("correction at the base level moved a factor")
	}
	// Observed loss 5x the bucket prediction at level 800 (0.04): the
	// ratio clamps at model.CorrHi and the factor steps to 1.75.
	if !sel.Correct(f, 800, 0.20) {
		t.Fatal("correction did not move the factor")
	}
	facs := sel.Factors()
	if math.Abs(facs[0]-1.75) > 1e-12 {
		t.Errorf("bucket 0 factor = %v, want 1.75", facs[0])
	}
	if facs[1] != 1 {
		t.Errorf("bucket 1 factor = %v, want untouched 1", facs[1])
	}
	// The corrected curve now pushes the heavy bucket to a deeper level:
	// 1.75 * 0.04 = 0.07 > 0.05, but 1.75 * 0.01 = 0.0175 fits.
	if lvl, ok := sel.Select(f, 0.05); !ok || lvl != 1600 {
		t.Errorf("post-correction select: (%v, %v), want (1600, true)", lvl, ok)
	}
	if sel.Correct(Features{Key: 25, Valid: true}, 800, 0.3) {
		t.Error("out-of-domain correction moved a factor")
	}
}

func TestLoopSelectorStateRoundtrip(t *testing.T) {
	sel := selectorFixture(t)
	sel.Correct(Features{Key: 5, Valid: true}, 800, 0.20)
	st := sel.State()
	if st.Version != selectorStateVersion || st.Kind != "loop" {
		t.Fatalf("state header = (%d, %q)", st.Version, st.Kind)
	}
	fresh := selectorFixture(t)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Factors(), sel.Factors()) {
		t.Errorf("restored factors %v != %v", fresh.Factors(), sel.Factors())
	}
}

func TestLoopSelectorRestoreRejections(t *testing.T) {
	sel := selectorFixture(t)
	good := sel.State()
	cases := []struct {
		name string
		st   SelectorState
	}{
		{"wrong version", SelectorState{Version: 2, Kind: "loop", Factors: good.Factors}},
		{"wrong kind", SelectorState{Version: 1, Kind: "func", Factors: good.Factors}},
		{"short factors", SelectorState{Version: 1, Kind: "loop", Factors: []float64{1}}},
		{"NaN factor", SelectorState{Version: 1, Kind: "loop", Factors: []float64{math.NaN(), 1}}},
		{"Inf factor", SelectorState{Version: 1, Kind: "loop", Factors: []float64{math.Inf(1), 1}}},
		{"below clamp", SelectorState{Version: 1, Kind: "loop", Factors: []float64{0.1, 1}}},
		{"above clamp", SelectorState{Version: 1, Kind: "loop", Factors: []float64{5, 1}}},
	}
	for _, c := range cases {
		if err := sel.Restore(c.st); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if !reflect.DeepEqual(sel.Factors(), good.Factors) {
		t.Error("rejected restores mutated the live factors")
	}
}

// --- calibration: feature-tagged accumulation -------------------------

func TestBuildSelectorEnvelope(t *testing.T) {
	cal, err := NewLoopCalibration("loop", []float64{100, 200, 400}, 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 10}); err != nil {
		t.Fatal(err)
	}
	// A noisy bucket where measured loss *rises* with level: the envelope
	// must flatten it to monotone non-increasing, so Select never trusts
	// a deeper level to lose more than a shallower one.
	if err := cal.AddRunFeat(Features{Key: 5, Valid: true}, []float64{0.01, 0.05, 0.2}, []float64{100, 200, 400}); err != nil {
		t.Fatal(err)
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		t.Fatal(err)
	}
	// Every knot now predicts 0.2, so an SLA of 0.1 is unsatisfiable on
	// the grid and falls back to the base level.
	if lvl, ok := sel.Select(Features{Key: 5, Valid: true}, 0.1); !ok || lvl != 3200 {
		t.Errorf("enveloped select: (%v, %v), want (3200, true)", lvl, ok)
	}
	if lvl, ok := sel.Select(Features{Key: 5, Valid: true}, 0.25); !ok || lvl != 100 {
		t.Errorf("enveloped select above plateau: (%v, %v), want (100, true)", lvl, ok)
	}
}

func TestBuildSelectorErrors(t *testing.T) {
	cal, err := NewLoopCalibration("loop", []float64{100, 200}, 3200, 3200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.BuildSelector(); err == nil {
		t.Error("BuildSelector before FeatureBuckets accepted")
	}
	if err := cal.AddRunFeat(Features{Key: 5, Valid: true}, []float64{0.1, 0.01}, []float64{1, 2}); err == nil {
		t.Error("AddRunFeat before FeatureBuckets accepted")
	}
	if err := cal.FeatureBuckets([]float64{0, 10}); err != nil {
		t.Fatal(err)
	}
	// Untagged (invalid-Features) runs train the global model only.
	if err := cal.AddRunFeat(Features{}, []float64{0.1, 0.01}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if cal.runs != 1 {
		t.Errorf("global runs = %d, want 1", cal.runs)
	}
	if _, err := cal.BuildSelector(); err == nil {
		t.Error("BuildSelector with no feature-tagged runs accepted")
	}
}

// --- pipeline behavior with an installed Selector ---------------------

func TestLoopExecFeatSelectorPipeline(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	l.InstallSelector(selectorFixture(t))

	// Heavy input: the Select stage overrides the reactive level (200)
	// with the bucket's 800.
	q := &fakeQoS{}
	e, err := l.ExecFeat(q, Features{Key: 5, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	res, iters := runLoop(t, e, 3200)
	if !res.Approximated || iters != 800 {
		t.Errorf("heavy input stopped at %d (%+v), want 800", iters, res)
	}
	// Light input: the bucket's 100 undercuts the reactive level.
	e, err = l.ExecFeat(&fakeQoS{}, Features{Key: 15, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, iters = runLoop(t, e, 3200); iters != 100 {
		t.Errorf("light input stopped at %d, want 100", iters)
	}
	// Without a usable choice the reactive level governs. Invalid
	// Features and Begin skip the Select stage untallied; a valid key
	// outside the buckets is a fallback, an input the Selector declined.
	for _, c := range []struct {
		name      string
		begin     bool
		feat      Features
		fallbacks int64
	}{
		{"invalid features", false, Features{}, 0},
		{"Begin", true, Features{}, 0},
		{"key outside the buckets", false, Features{Key: 25, Valid: true}, 1},
	} {
		var e *LoopExec
		if c.begin {
			e, err = l.Begin(&fakeQoS{})
		} else {
			e, err = l.ExecFeat(&fakeQoS{}, c.feat)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, iters = runLoop(t, e, 3200); iters != 200 {
			t.Errorf("%s stopped at %d, want reactive 200", c.name, iters)
		}
		if ss := l.SelectorStats(); !ss.Installed || ss.Hits != 2 || ss.Fallbacks != c.fallbacks || ss.Overrides != 0 {
			t.Errorf("%s: SelectorStats = %+v, want installed, 2 hits, %d fallback(s)", c.name, ss, c.fallbacks)
		}
	}
}

func TestLoopExecFeatAdaptiveFloor(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	l.InstallSelector(selectorFixture(t))
	e, err := l.ExecFeat(&fakeQoS{}, Features{Key: 5, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	// In adaptive mode the selected level replaces the iteration floor M;
	// the Delta law still decides the exact stop.
	if !e.sd.selected || e.adaptive.M != 800 {
		t.Errorf("adaptive floor = %v (selected=%v), want 800", e.adaptive.M, e.sd.selected)
	}
	e.Finish(0)
}

func TestLoopExecFeatDisabledCountsOverride(t *testing.T) {
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	l.InstallSelector(selectorFixture(t))
	e, err := l.ExecFeat(&fakeQoS{}, Features{Key: 5, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, iters := runLoop(t, e, 3200); iters != 3200 {
		t.Errorf("disabled loop stopped at %d, want precise 3200", iters)
	}
	ss := l.SelectorStats()
	if ss.Overrides != 1 || ss.Hits != 0 {
		t.Errorf("SelectorStats = %+v, want the discarded choice counted as an override", ss)
	}
}

// TestLoopSelectorCorrectStage: a monitored ExecFeat routes the measured
// loss back into the bucket that chose the level, moving its correction
// factor and ticking the corrections counter.
func TestLoopSelectorCorrectStage(t *testing.T) {
	// The selector's repair lands before OnEvent fires: a handler that
	// reads SelectorStats sees the correction its observation made.
	var l *Loop
	var atEvent []int64
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1,
		OnEvent: func(Event) { atEvent = append(atEvent, l.SelectorStats().Corrections) }})
	if err != nil {
		t.Fatal(err)
	}
	sel := selectorFixture(t)
	l.InstallSelector(sel)
	// Monitored execution: runs to the natural end, measures loss 0.20
	// against the selected stop at 800 where the bucket predicted 0.04.
	q := &fakeQoS{lossValue: 0.20}
	e, err := l.ExecFeat(q, Features{Key: 5, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runLoop(t, e, 3200)
	if !res.Monitored || res.Loss != 0.20 {
		t.Fatalf("monitored run = %+v", res)
	}
	if facs := sel.Factors(); math.Abs(facs[0]-1.75) > 1e-12 {
		t.Errorf("bucket 0 factor = %v, want 1.75 after the clamped correction", facs[0])
	}
	if ss := l.SelectorStats(); ss.Corrections != 1 {
		t.Errorf("Corrections = %d, want 1", ss.Corrections)
	}
	if len(atEvent) != 1 || atEvent[0] != 1 {
		t.Errorf("Corrections seen by OnEvent = %v, want [1]: Correct must precede the event", atEvent)
	}
}

// --- snapshot version skew --------------------------------------------

func TestLoopStateSelectorSkew(t *testing.T) {
	mk := func(withSel bool) *Loop {
		l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1})
		if err != nil {
			t.Fatal(err)
		}
		if withSel {
			l.InstallSelector(selectorFixture(t))
		}
		return l
	}

	// Drift some state into a selector-bearing loop and snapshot it.
	src := mk(true)
	e, err := src.ExecFeat(&fakeQoS{lossValue: 0.20}, Features{Key: 5, Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	runLoop(t, e, 3200)
	snap := src.State()
	if snap.Selector == nil {
		t.Fatal("snapshot of a selector-bearing loop lacks the selector section")
	}

	// Selector-bearing snapshot into a selector-bearing loop: the factor
	// vector rehydrates.
	dst := mk(true)
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if facs := dst.Selector().(*BucketSelector).Factors(); math.Abs(facs[0]-1.75) > 1e-12 {
		t.Errorf("restored factor = %v, want 1.75", facs[0])
	}

	// Pre-selector snapshot (section absent) into a selector-bearing
	// loop: fail-soft — the reactive law restores, the selector runs
	// cold.
	old := snap
	old.Selector = nil
	cold := mk(true)
	if err := cold.Restore(old); err != nil {
		t.Fatal(err)
	}
	if facs := cold.Selector().(*BucketSelector).Factors(); facs[0] != 1 || facs[1] != 1 {
		t.Errorf("cold selector factors = %v, want all 1", facs)
	}
	if execs, _, _ := cold.Stats(); execs != snap.Count {
		t.Errorf("reactive counters did not restore: count %d, want %d", execs, snap.Count)
	}

	// Selector-bearing snapshot into a selector-less loop: the section is
	// dropped, everything else restores.
	bare := mk(false)
	if err := bare.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if execs, _, _ := bare.Stats(); execs != snap.Count {
		t.Errorf("selector-less restore lost the counters: %d, want %d", execs, snap.Count)
	}

	// A present-but-corrupt section rejects the whole restore before
	// anything mutates.
	bad := snap
	bad.Selector = &SelectorState{Version: 1, Kind: "loop", Factors: []float64{math.NaN(), 1}}
	victim := mk(true)
	if err := victim.Restore(bad); err == nil {
		t.Fatal("corrupt selector section accepted")
	}
	if execs, _, _ := victim.Stats(); execs != 0 {
		t.Errorf("rejected restore mutated the counters: count %d", execs)
	}
	if facs := victim.Selector().(*BucketSelector).Factors(); facs[0] != 1 {
		t.Errorf("rejected restore mutated the selector: %v", facs)
	}

	// Mis-shaped (wrong bucket count) sections reject too.
	short := snap
	short.Selector = &SelectorState{Version: 1, Kind: "loop", Factors: []float64{1}}
	if err := mk(true).Restore(short); err == nil {
		t.Error("mis-shaped selector section accepted")
	}
}

// TestLoopStateSelectorJSONSkew exercises the same skew through the JSON
// layer a real snapshot bundle travels.
func TestLoopStateSelectorJSONSkew(t *testing.T) {
	src, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// A pre-selector bundle: marshalled from a selector-less loop, so the
	// "selector" key is absent entirely.
	data, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dst.InstallSelector(selectorFixture(t))
	if err := dst.RestoreStateJSON(data); err != nil {
		t.Fatalf("pre-selector JSON rejected: %v", err)
	}
	if facs := dst.Selector().(*BucketSelector).Factors(); facs[0] != 1 {
		t.Errorf("pre-selector JSON warmed the selector: %v", facs)
	}
}

// --- hot path: zero allocations ---------------------------------------

// TestExecFeatSteadyStateAllocationFree: the featureful entry point must
// match Begin's zero-allocation steady state, both with the nil-selector
// fast path and with a Selector installed.
func TestExecFeatSteadyStateAllocationFree(t *testing.T) {
	run := func(l *Loop, f Features) float64 {
		q := &fakeQoS{}
		return testing.AllocsPerRun(200, func() {
			e, err := l.ExecFeat(q, f)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; e.Continue(i); i++ {
			}
			e.Finish(i)
		})
	}
	bare, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := run(bare, Features{Key: 5, Valid: true}); allocs != 0 {
		t.Errorf("nil-selector ExecFeat allocates %v objects/op, want 0", allocs)
	}
	sel, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sel.InstallSelector(selectorFixture(t))
	if allocs := run(sel, Features{Key: 15, Valid: true}); allocs != 0 {
		t.Errorf("selector ExecFeat allocates %v objects/op, want 0", allocs)
	}
}

package core

import (
	"strings"
	"testing"
)

// Golden wire format of the persisted controller state. internal/persist
// envelopes and the serve tier's boot path read documents written by
// earlier builds, so the exact bytes each controller kind emits — field
// names, field order, number formatting, the optional selector section,
// — are an interface, not an implementation
// detail. Each case drives a freshly built controller through a fixed
// script, requires MarshalState to produce the literal document below,
// and then restores that literal document into a second fresh controller
// and requires it to marshal back to the same bytes.

const (
	goldenLoopStatic   = `{"name":"loop","level":400,"interval":4,"disabled":false,"force_off":false,"count":8,"monitored":2,"loss_sum":0.4,"adaptive_m":0,"adaptive_period":0,"adaptive_delta":0}`
	goldenLoopAdaptive = `{"name":"loop","level":300,"interval":2,"disabled":false,"force_off":false,"count":2,"monitored":1,"loss_sum":0.2,"adaptive_m":100,"adaptive_period":100,"adaptive_delta":0.0075}`
	goldenLoopSelector = `{"name":"loop","level":200,"interval":1,"disabled":false,"force_off":false,"count":2,"monitored":2,"loss_sum":0.21000000000000002,"adaptive_m":0,"adaptive_period":0,"adaptive_delta":0,"selector":{"version":1,"kind":"loop","factors":[1.75,0.875]}}`
	goldenFunc         = `{"name":"sq","offset":-1,"interval":2,"disabled":false,"force_off":false,"count":3,"monitored":1,"loss_sum":0.009999999999999985,"work_milli":38000,"selector":{"version":1,"kind":"func","factors":[0.8749999999999998,1]}}`
	goldenFunc2        = `{"name":"mul","offset":-1,"interval":3,"disabled":false,"force_off":true,"count":5,"monitored":1,"loss_sum":0.010000000000000083,"work_milli":50000}`
	// goldenFunc2NoWork is the document Func2 wrote before it counted
	// work; it must still restore.
	goldenFunc2NoWork = `{"name":"mul","offset":-1,"interval":3,"disabled":false,"force_off":true,"count":5,"monitored":1,"loss_sum":0.010000000000000083}`
)

// goldenStaticLoop is a static-mode loop monitored every 4th execution;
// driven, it sees two over-SLA observations and raises M twice.
func goldenStaticLoop(t *testing.T, drive bool) *Loop {
	t.Helper()
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; drive && k < 8; k++ {
		e, err := l.Begin(&fakeQoS{lossValue: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		runLoop(t, e, 3200)
	}
	return l
}

// goldenAdaptiveLoop is an adaptive-mode loop; driven, its one monitored
// execution halves TargetDelta.
func goldenAdaptiveLoop(t *testing.T, drive bool) *Loop {
	t.Helper()
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, Mode: Adaptive, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; drive && k < 2; k++ {
		e, err := l.Begin(&fakeQoS{lossValue: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		runLoop(t, e, 3200)
	}
	return l
}

// goldenSelectorLoop carries an installed loop-kind selector; driven, one
// monitored execution per bucket moves both correction factors.
func goldenSelectorLoop(t *testing.T, drive bool) *Loop {
	t.Helper()
	l, err := NewLoop(LoopConfig{Name: "loop", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.InstallSelector(selectorFixture(t))
	if drive {
		for _, in := range []struct{ key, loss float64 }{{5, 0.2}, {15, 0.01}} {
			e, err := l.ExecFeat(&fakeQoS{lossValue: in.loss}, Features{Key: in.key, Valid: true})
			if err != nil {
				t.Fatal(err)
			}
			runLoop(t, e, 3200)
		}
	}
	return l
}

// goldenFuncCtl is funcFixture with a func-kind selector installed; driven, it
// mixes range-routed calls with one monitored selector-routed call whose
// loss undershoots the bucket's prediction, so the offset goes negative,
// the work counter accumulates, and one bucket factor moves.
func goldenFuncCtl(t *testing.T, drive bool) *Func {
	t.Helper()
	f := funcFixture(t, 0.05, 2)
	cal, err := NewFuncCalibration("sq", 18, []string{"v0", "v1"}, []float64{4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 5, 10}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []float64{2, 7} {
		for v, loss := range []float64{0.10, 0.02} {
			if err := cal.AddSampleFeat(Features{Key: key, Valid: true}, v, key, loss); err != nil {
				t.Fatal(err)
			}
		}
	}
	sel, err := cal.BuildFuncSelector()
	if err != nil {
		t.Fatal(err)
	}
	f.InstallSelector(sel)
	if drive {
		f.Call(3)
		f.CallFeat(3, Features{Key: 2, Valid: true})
		f.Call(4)
	}
	return f
}

// goldenFunc2Ctl is func2Fixture monitored every 3rd call; driven, its
// one monitored call gives accuracy back (negative offset) and the
// controller is then force-disabled.
func goldenFunc2Ctl(t *testing.T, drive bool) *Func2 {
	t.Helper()
	f := func2Fixture(t, 0.05, 3)
	if drive {
		for k := 0; k < 5; k++ {
			f.Call(2, 3)
		}
		f.DisableApprox()
	}
	return f
}

// goldenCases pairs each golden document with the controller that
// writes it when driven.
var goldenCases = []struct {
	name   string
	golden string
	build  func(t *testing.T, drive bool) Controller
}{
	{"loop-static", goldenLoopStatic, func(t *testing.T, d bool) Controller { return goldenStaticLoop(t, d) }},
	{"loop-adaptive", goldenLoopAdaptive, func(t *testing.T, d bool) Controller { return goldenAdaptiveLoop(t, d) }},
	{"loop-selector", goldenLoopSelector, func(t *testing.T, d bool) Controller { return goldenSelectorLoop(t, d) }},
	{"func", goldenFunc, func(t *testing.T, d bool) Controller { return goldenFuncCtl(t, d) }},
	{"func2", goldenFunc2, func(t *testing.T, d bool) Controller { return goldenFunc2Ctl(t, d) }},
}

func TestStateWireFormatGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.build(t, true).MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.golden {
				t.Fatalf("driven controller marshals to\n  %s\nwant the golden document\n  %s", got, c.golden)
			}
			fresh := c.build(t, false)
			if err := fresh.RestoreStateJSON([]byte(c.golden)); err != nil {
				t.Fatalf("golden document rejected by a fresh controller: %v", err)
			}
			back, err := fresh.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if string(back) != c.golden {
				t.Fatalf("restored controller marshals to\n  %s\nwant the golden document\n  %s", back, c.golden)
			}
		})
	}
}

// TestStateWireFormatRestoreIsLive: restoring the golden documents is not
// just a byte round trip — the restored controllers operate from the
// persisted point (level, offset, sticky disable, selector factors).
func TestStateWireFormatRestoreIsLive(t *testing.T) {
	l := goldenSelectorLoop(t, false)
	if err := l.RestoreStateJSON([]byte(goldenLoopSelector)); err != nil {
		t.Fatal(err)
	}
	if l.Level() != 200 {
		t.Errorf("restored level = %v, want 200", l.Level())
	}
	if got := l.Selector().(*BucketSelector).Factors(); len(got) != 2 || got[0] != 1.75 || got[1] != 0.875 {
		t.Errorf("restored selector factors = %v, want [1.75 0.875]", got)
	}

	f := goldenFuncCtl(t, false)
	if err := f.RestoreStateJSON([]byte(goldenFunc)); err != nil {
		t.Fatal(err)
	}
	if f.Offset() != -1 || f.Work() != 38 {
		t.Errorf("restored func offset/work = %d/%v, want -1/38", f.Offset(), f.Work())
	}

	for doc, work := range map[string]float64{goldenFunc2: 50, goldenFunc2NoWork: 0} {
		f2 := goldenFunc2Ctl(t, false)
		if err := f2.RestoreStateJSON([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		if f2.Offset() != -1 || f2.ApproxEnabled() || f2.Work() != work {
			t.Errorf("restored func2 offset/enabled/work = %d/%v/%v, want -1/false/%v", f2.Offset(), f2.ApproxEnabled(), f2.Work(), work)
		}
	}
}

// FuzzRestoreStateJSON: a controller snapshot is read off a disk another
// build wrote. Whatever the bytes, no controller kind panics restoring
// them; one that refuses them is in the state it was in, byte for byte;
// and what one accepts round-trips: a fresh controller of the same kind
// restores the result's MarshalState and marshals to the same bytes.
func FuzzRestoreStateJSON(f *testing.F) {
	for _, c := range goldenCases {
		f.Add([]byte(c.golden))
	}
	f.Add([]byte(goldenFunc2NoWork))
	f.Add([]byte(strings.Replace(goldenLoopStatic, `"count":8`, `"count":-1`, 1)))
	// The bundle layout serve wrote before it held one controller.
	f.Add([]byte(`{"version":1,"controllers":{"loop":` + goldenLoopStatic + `}}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range goldenCases {
			ctl := c.build(t, true)
			before, err := ctl.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			rerr := ctl.RestoreStateJSON(data)
			after, err := ctl.MarshalState()
			if err != nil {
				t.Fatalf("%s no longer marshals: %v", c.name, err)
			}
			if rerr != nil {
				if string(after) != string(before) {
					t.Fatalf("%s refused the document (%v) but changed state:\n was %s\n now %s", c.name, rerr, before, after)
				}
				continue
			}
			fresh := c.build(t, false)
			if err := fresh.RestoreStateJSON(after); err != nil {
				t.Fatalf("a fresh %s refuses what this one marshals: %v\n%s", c.name, err, after)
			}
			if again, err := fresh.MarshalState(); err != nil || string(again) != string(after) {
				t.Fatalf("%s round trip changed the document (%v):\n out %s\nback %s", c.name, err, after, again)
			}
		}
	})
}

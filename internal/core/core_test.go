package core

import (
	"math/rand"
	"testing"
)

// The default policy, what a nil Policy installs, is a window of one:
// Figure 3's band on every observation.
func TestDefaultPolicy(t *testing.T) {
	p := &WindowedPolicy{}
	cases := []struct {
		loss, sla float64
		want      Action
	}{
		{0.05, 0.02, ActIncrease},  // low QoS
		{0.001, 0.02, ActDecrease}, // high QoS
		{0.019, 0.02, ActNone},     // within band [0.9*SLA, SLA]
		{0.02, 0.02, ActNone},      // exactly at SLA
		{0.0185, 0.02, ActNone},    // just above 0.9*SLA
	}
	for _, c := range cases {
		if got := p.Observe(c.loss, c.sla); got != (Decision{Action: c.want}) {
			t.Errorf("Observe(%v, %v) = %+v, want %v", c.loss, c.sla, got, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	if ActNone.String() != "none" || ActIncrease.String() != "increase-accuracy" ||
		ActDecrease.String() != "decrease-accuracy" {
		t.Error("Action strings wrong")
	}
	if Action(42).String() == "" {
		t.Error("unknown action must still stringify")
	}
}

// The Figure 9 policy: a window of 100 consecutive monitored queries
// aggregated into one decision.
func TestWindowedPolicyAggregates(t *testing.T) {
	p := &WindowedPolicy{Window: 100}
	sla := 0.01 // "99% of queries identical"
	// The first 99 observations keep the window open: monitor everything.
	for i := 0; i < 99; i++ {
		loss := 0.0
		if i < 5 {
			loss = 1 // five low-QoS queries out of the window
		}
		d := p.Observe(loss, sla)
		if d.Action != ActNone {
			t.Fatalf("observation %d acted early: %v", i, d.Action)
		}
		if !d.Monitor {
			t.Fatalf("observation %d closed the window", i)
		}
	}
	// 100th completes the window: aggregate loss 5/100 = 0.05 > SLA.
	d := p.Observe(0, sla)
	if d.Action != ActIncrease {
		t.Fatalf("window decision = %v, want increase", d.Action)
	}
	if d.Monitor {
		t.Fatal("the window stayed open after 100 observations")
	}
}

func TestWindowedPolicyGoodWindowDecreases(t *testing.T) {
	p := &WindowedPolicy{Window: 10}
	sla := 0.5
	var d Decision
	for i := 0; i < 10; i++ {
		d = p.Observe(0, sla) // all queries perfect
	}
	if d.Action != ActDecrease {
		t.Fatalf("perfect window decision = %v, want decrease", d.Action)
	}
}

func TestWindowedPolicyInBandWindowHolds(t *testing.T) {
	p := &WindowedPolicy{Window: 10}
	sla := 0.5
	var d Decision
	for i := 0; i < 10; i++ {
		loss := 0.0
		if i < 5 {
			loss = 1 // mean 0.5 == SLA: inside [0.45, 0.5]
		}
		d = p.Observe(loss, sla)
	}
	if d.Action != ActNone {
		t.Fatalf("in-band window decision = %v, want none", d.Action)
	}
}

func TestWindowedPolicyReopens(t *testing.T) {
	p := &WindowedPolicy{Window: 3}
	for i := 0; i < 3; i++ {
		p.Observe(1, 0.4)
	}
	// The next window starts fresh: it stays open for two observations,
	// and one low-QoS query in three averages 1/3 < 0.9·0.4. Counts
	// carried over from the first window would close it at once.
	var d Decision
	for i, loss := range []float64{0, 1, 0} {
		if d = p.Observe(loss, 0.4); i < 2 && d != (Decision{Monitor: true}) {
			t.Fatalf("observation %d of the new window = %+v, want it open", i, d)
		}
	}
	if d != (Decision{Action: ActDecrease}) {
		t.Fatalf("closing decision = %+v, want decrease at 1/3 and the window closed", d)
	}
}

// The zero Window is a window of one, Figure 3: every observation
// closes it, and Observe leaves the field as configured.
func TestWindowedPolicyDefaultWindow(t *testing.T) {
	p := &WindowedPolicy{}
	if d := p.Observe(0, 0.01); d != (Decision{Action: ActDecrease}) {
		t.Fatalf("decision = %+v, want a decrease with no window open", d)
	}
	if p.Window != 0 {
		t.Fatalf("Window = %d, want 0 as configured", p.Window)
	}
}

// parentFig3 and parentWindow are the two rules WindowedPolicy
// replaced, as they were written: Figure 3 on each loss, and Figure 9's
// share of the window's observations that lost anything, monitoring
// every execution while the window is open and restoring base when it
// closes.
func parentFig3(loss, sla float64) Action {
	switch {
	case loss > sla:
		return ActIncrease
	case loss < 0.9*sla:
		return ActDecrease
	}
	return ActNone
}

type parentWindow struct {
	window, nm, nl int
	open           bool
}

func (p *parentWindow) observe(loss, sla float64, base int) (Action, int) {
	if !p.open {
		p.open, p.nm, p.nl = true, 0, 0
	}
	if p.nm++; loss != 0 {
		p.nl++
	}
	if p.nm < p.window {
		return ActNone, 1
	}
	p.open = false
	return parentFig3(float64(p.nl)/float64(p.nm), sla), base
}

// WindowedPolicy is both parent rules: a window of 0 or 1 is Figure 3 on
// any loss, and on 0/1 losses (every search program's) a window of 2, 3
// or 100 acts and monitors as Figure 9's rule did, observation by
// observation.
func TestWindowedPolicyMatchesParentRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slas := []float64{0.005, 0.01, 0.02, 0.05, 0.4}
	for _, w := range []int{0, 1} {
		p := &WindowedPolicy{Window: w}
		for i := 0; i < 20000; i++ {
			sla := slas[rng.Intn(len(slas))]
			loss := rng.Float64() * 2 * sla
			if i%5 == 0 {
				loss = float64(rng.Intn(2))
			}
			if got, want := p.Observe(loss, sla), (Decision{Action: parentFig3(loss, sla)}); got != want {
				t.Fatalf("window %d observation %d: Observe(%v, %v) = %+v, want %+v", w, i, loss, sla, got, want)
			}
		}
	}
	const base = 7
	seen := map[Action]bool{}
	for _, w := range []int{2, 3, 100} {
		p, ref := &WindowedPolicy{Window: w}, &parentWindow{window: w}
		for i := 0; i < 50000; i++ {
			// Each stretch of 1000 observations loses at its own rate, so
			// windows land above, inside and below the band.
			rate := []float64{0, 0.004, 0.01, 0.02, 0.05, 0.3}[i/1000%6]
			sla := slas[i/6000%len(slas)]
			loss := 0.0
			if rng.Float64() < rate {
				loss = 1
			}
			act, iv := ref.observe(loss, sla, base)
			want := Decision{Action: act, Monitor: iv == 1}
			if got := p.Observe(loss, sla); got != want {
				t.Fatalf("window %d observation %d: Observe(%v, %v) = %+v, want %+v", w, i, loss, sla, got, want)
			}
			if iv == base {
				seen[act] = true
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("closed windows took only the actions %v", seen)
	}
}

// Two loops handed one *WindowedPolicy keep a window each: every loop
// closes its window on the fourth of its own observations, however the
// two interleave.
func TestSharedWindowedPolicyIsPrivate(t *testing.T) {
	shared := &WindowedPolicy{Window: 4}
	var loops [2]*Loop
	for i := range loops {
		l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1, Policy: shared})
		if err != nil {
			t.Fatal(err)
		}
		loops[i] = l
	}
	for round := 1; round <= 8; round++ {
		for i, l := range loops {
			e, err := l.Begin(plainQoS{})
			if err != nil {
				t.Fatal(err)
			}
			res, _ := runLoop(t, e, 3200)
			if closed, want := res.Recalibrated != ActNone, round%4 == 0; closed != want {
				t.Fatalf("loop %d observation %d: window closed = %v, want %v", i, round, closed, want)
			}
		}
	}
	if *shared != (WindowedPolicy{Window: 4}) {
		t.Fatalf("the configured policy was written to: %+v", *shared)
	}
}

// A window, once closed, hands the controller back the SampleInterval it
// was built with, on every controller kind. A snapshot taken while a
// window was open holds that interval, not the window's 1, and restoring
// it onto a controller built with another makes it the interval windows
// close back to. Restored onto a live controller one observation into
// its own window, that window starts over too: it judges no loss from
// before the restore.
func TestClosedWindowRestoresSampleInterval(t *testing.T) {
	const window = 3
	lm, fm, gm := testLoopModel(t), funcFixture(t, 0.05, 0).cfg.Model, func2Fixture(t, 0.05, 0).cfg.Model
	sq := func(x float64) float64 { return x * x }
	mul := func(x, y float64) float64 { return x * y }
	build := func(t *testing.T, kind, iv int) Controller {
		var c Controller
		var err error
		pol := &WindowedPolicy{Window: window}
		switch kind {
		case kLoop:
			c, err = NewLoop(LoopConfig{Name: "l", Model: lm, SLA: 0.05, SampleInterval: iv, Policy: pol})
		case kFunc:
			c, err = NewFunc(FuncConfig{Name: "f", Model: fm, SLA: 0.05, SampleInterval: iv, Policy: pol}, sq, []Fn{sq, sq})
		default:
			c, err = NewFunc2(Func2Config{Name: "f2", Model: gm, SLA: 0.05, SampleInterval: iv, Policy: pol}, mul, []Fn2{mul, mul})
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	exec := func(t *testing.T, c Controller) {
		switch c := c.(type) {
		case *Loop:
			e, err := c.Begin(plainQoS{})
			if err != nil {
				t.Fatal(err)
			}
			runLoop(t, e, 3200)
		case *Func:
			c.Call(2)
		case *Func2:
			c.Call(2, 3)
		}
	}
	// runTo executes c until it has made want monitored observations, and
	// then requires the live interval to be iv.
	runTo := func(t *testing.T, c Controller, want, iv int64, what string) {
		t.Helper()
		for _, m, _ := c.Stats(); m < want; _, m, _ = c.Stats() {
			exec(t, c)
		}
		if got := c.SampleInterval(); got != iv {
			t.Fatalf("%s %s: interval = %d, want %d", c.Name(), what, got, iv)
		}
	}
	for kind, name := range []string{kLoop: "Loop", kFunc: "Func", kFunc2: "Func2"} {
		t.Run(name, func(t *testing.T) {
			for _, iv := range []int64{1, 7, 10000} {
				c := build(t, kind, int(iv))
				runTo(t, c, 1, 1, "with a window open")
				data, err := c.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				runTo(t, c, window, iv, "after the window closed")

				fresh := build(t, kind, int(10*iv+3))
				if err := fresh.RestoreStateJSON(data); err != nil {
					t.Fatal(err)
				}
				runTo(t, fresh, 1, iv, "restored mid-window")
				runTo(t, fresh, 1+window-1, 1, "restored, its own window open")
				runTo(t, fresh, 1+window, iv, "restored, after its own window closed")

				live := build(t, kind, int(iv))
				runTo(t, live, 1, 1, "with a window open")
				if err := live.RestoreStateJSON(data); err != nil {
					t.Fatal(err)
				}
				runTo(t, live, 1, iv, "restored live mid-window")
				runTo(t, live, 1+window-1, 1, "restored live, its own window open")
				runTo(t, live, 1+window, iv, "restored live, after its own window closed")
			}
		})
	}
}

package core

import (
	"math"
	"testing"
)

// The sampling decision is the paper's count % Sample_QoS == 0; the
// reciprocal that replaces the divide must be that modulo, for every
// interval and every sequence number, on both sides of the 32-bit range
// the multiply-and-compare is exact in.

func wantDivides(n, iv int64) bool { return iv > 0 && n%iv == 0 }

func TestSamplingDivides(t *testing.T) {
	ivs := []int64{0, 1, 2, 3, 7, 100, 1<<31 - 1, 1<<32 - 1, 1 << 32, 1 << 40}
	for _, iv := range ivs {
		r := newSampleRate(iv)
		ns := []int64{0, 1, 2, 3, 6, 7, 8, 99, 100, 101, 700,
			1<<31 - 2, 1<<31 - 1, 1 << 31,
			1<<32 - 3, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<32 + 2,
			1<<40 - 1, 1 << 40, 1<<40 + 1, 1 << 41,
			math.MaxInt64 - 1, math.MaxInt64, -1, -7, math.MinInt64}
		if iv > 0 {
			// Multiples of iv and their neighbours, around 2³² and at the top.
			for _, base := range []int64{1<<32 - 1, 1 << 32, math.MaxInt64} {
				k := base - base%iv
				ns = append(ns, k-1, k, k+1)
				if k <= math.MaxInt64-iv {
					ns = append(ns, k+iv-1, k+iv)
				}
			}
		}
		for _, n := range ns {
			if got, want := r.divides(n), wantDivides(n, iv); got != want {
				t.Errorf("iv=%d n=%d: divides = %v, n%%iv==0 is %v", iv, n, got, want)
			}
		}
	}
}

func FuzzSamplingDivides(f *testing.F) {
	for _, s := range [][2]int64{
		{0, 0}, {0, 1}, {12, 3}, {13, 3}, {1<<32 - 1, 1<<32 - 1}, {1 << 32, 1 << 32},
		{1<<32 - 1, 3}, {1 << 32, 2}, {1<<32 + 2, 3}, {math.MaxInt64, 7}, {1 << 40, 1 << 40},
		{-6, 3}, {6, -3}, {math.MinInt64, 2}, {4294967290, 65537 * 65535},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, n, iv int64) {
		if got, want := newSampleRate(iv).divides(n), wantDivides(n, iv); got != want {
			t.Fatalf("iv=%d n=%d: divides = %v, n%%iv==0 is %v", iv, n, got, want)
		}
		// A multiple near n, so the fuzzer's random pairs do not leave the
		// true branch to the seeds alone.
		if iv > 0 && n >= 0 {
			if k := n - n%iv; !newSampleRate(iv).divides(k) {
				t.Fatalf("iv=%d: multiple %d not recognised", iv, k)
			}
		}
	})
}

// checkScheduleFrom runs the ten executions after a counter restored to
// count through step, which reports whether the execution it ran was
// monitored, and holds them to the modulo schedule.
func checkScheduleFrom(t *testing.T, what string, count, iv int64, step func() bool) {
	t.Helper()
	for n := count + 1; n <= count+10; n++ {
		if got, want := step(), wantDivides(n, iv); got != want {
			t.Errorf("%s iv=%d: execution %d monitored = %v, want %v", what, iv, n, got, want)
		}
	}
}

// A controller restored just under 2³² executions crosses from the
// multiply-and-compare into the plain remainder mid-stream; the
// monitored sequence numbers must be the modulo's on both sides.
func TestSamplingScheduleAcrossTwoToThe32(t *testing.T) {
	const count = 1<<32 - 3
	for _, iv := range []int64{1, 2, 3, 7} {
		l, err := NewLoop(LoopConfig{Name: "l", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ls := l.State()
		ls.Count, ls.Interval = count, int(iv)
		if err := l.Restore(ls); err != nil {
			t.Fatal(err)
		}
		checkScheduleFrom(t, "loop", count, iv, func() bool {
			e, err := l.Begin(plainQoS{})
			if err != nil {
				t.Fatal(err)
			}
			res, _ := runLoop(t, e, 3200)
			return res.Monitored
		})

		f := funcFixture(t, 0.2, 1000)
		fs := f.State()
		fs.Count, fs.Interval = count, iv
		if err := f.Restore(fs); err != nil {
			t.Fatal(err)
		}
		checkScheduleFrom(t, "func", count, iv, func() bool {
			_, before, _ := f.Stats()
			f.Call(2)
			_, after, _ := f.Stats()
			return after == before+1
		})
		// The batched tier reads the interval off the same pair for its one
		// division per batch: one member of the next ten is monitored.
		_, before, _ := f.Stats()
		if err := f.CallN(make([]float64, 10), make([]float64, 10)); err != nil {
			t.Fatal(err)
		}
		if _, after, _ := f.Stats(); after != before+1 {
			t.Errorf("func iv=%d: CallN over executions %d..%d monitored %d members, want 1", iv, count+11, count+20, after-before)
		}
	}
}

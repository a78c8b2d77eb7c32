package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func registryFixture(t *testing.T) (*Registry, *Loop, *Func2) {
	t.Helper()
	l, err := NewLoop(LoopConfig{Name: "loop-a", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func2Fixture(t, 0.05, 2)
	r := NewRegistry()
	if err := r.Register(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(f); err != nil {
		t.Fatal(err)
	}
	return r, l, f
}

func TestRegistryRegisterAndEnumerate(t *testing.T) {
	r, l, f := registryFixture(t)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "loop-a" || names[1] != "mul" {
		t.Errorf("Names = %v, want registration order [loop-a mul]", names)
	}
	cs := r.Controllers()
	if len(cs) != 2 || cs[0].Name() != "loop-a" || cs[1].Name() != "mul" {
		t.Errorf("Controllers out of order: %v", cs)
	}
	if got, ok := r.Get("loop-a"); !ok || got != Controller(l) {
		t.Error("Get(loop-a) did not return the registered loop")
	}
	if got, ok := r.Get("mul"); !ok || got != Controller(f) {
		t.Error("Get(mul) did not return the registered func2")
	}
	if _, ok := r.Get("absent"); ok {
		t.Error("Get(absent) reported ok")
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	r, l, _ := registryFixture(t)
	if err := r.Register(l); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate registration error = %v", err)
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil controller accepted")
	}
	anon, err := NewLoop(LoopConfig{Model: testLoopModel(t), SLA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(anon); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("unnamed controller error = %v", err)
	}
}

// TestRegistrySnapshotRoundTrip is the multi-controller persistence
// contract: one bundle restores every registered controller.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	r1, l1, f1 := registryFixture(t)
	for run := 0; run < 10; run++ {
		q := &fakeQoS{lossValue: 0.5}
		e, _ := l1.Begin(q)
		i := 0
		for ; i < 3200 && e.Continue(i); i++ {
		}
		e.Finish(i)
		f1.Call(2, 3)
	}
	data, err := r1.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	r2, l2, f2 := registryFixture(t)
	rep, err := r2.RestoreAllJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, note := range rep {
		if note != "restored" {
			t.Errorf("controller %q: %s, want restored", name, note)
		}
	}
	if l2.Level() != l1.Level() {
		t.Errorf("loop level = %v, want %v", l2.Level(), l1.Level())
	}
	e1, m1, _ := l1.Stats()
	e2, m2, _ := l2.Stats()
	if e1 != e2 || m1 != m2 {
		t.Errorf("loop counters (%d,%d) vs (%d,%d)", e1, m1, e2, m2)
	}
	c1, fm1, _ := f1.Stats()
	c2, fm2, _ := f2.Stats()
	if c1 != c2 || fm1 != fm2 {
		t.Errorf("func2 counters (%d,%d) vs (%d,%d)", c1, fm1, c2, fm2)
	}
}

func TestRegistryRestoreReportsPartialOutcomes(t *testing.T) {
	r1, _, _ := registryFixture(t)
	data, err := r1.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Poison only the loop's entry; the func2 entry stays valid.
	var bundle registryState
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatal(err)
	}
	var ls LoopState
	if err := json.Unmarshal(bundle.Controllers["loop-a"], &ls); err != nil {
		t.Fatal(err)
	}
	ls.Count = -1
	poisoned, err := json.Marshal(ls)
	if err != nil {
		t.Fatal(err)
	}
	bundle.Controllers["loop-a"] = poisoned
	data, err = json.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}

	r2, _, _ := registryFixture(t)
	rep, err := r2.RestoreAllJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep["loop-a"], "rejected:") {
		t.Errorf("loop-a = %q, want rejected", rep["loop-a"])
	}
	if rep["mul"] != "restored" {
		t.Errorf("mul = %q, want restored", rep["mul"])
	}
	if !rep.Rejected() {
		t.Error("report.Rejected() = false with a rejection present")
	}
	// The folded single-error form must surface the rejection.
	r3, _, _ := registryFixture(t)
	if err := r3.RestoreStateJSON(data); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("RestoreStateJSON error = %v, want rejection", err)
	}
}

func TestRegistryRestoreColdAndUnknownEntries(t *testing.T) {
	// Snapshot from a registry with only the loop; restore into one with
	// loop + func2: the func2 comes up cold, the loop restores, and the
	// bundle's unknown entries (none here) are ignored.
	l, err := NewLoop(LoopConfig{Name: "loop-a", Model: testLoopModel(t), SLA: 0.05, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRegistry()
	if err := r1.Register(l); err != nil {
		t.Fatal(err)
	}
	data, err := r1.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	r2, _, _ := registryFixture(t)
	rep, err := r2.RestoreAllJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep["loop-a"] != "restored" || rep["mul"] != "cold" {
		t.Errorf("report = %v, want loop-a restored, mul cold", rep)
	}
	if rep.Rejected() {
		t.Error("cold entries must not count as rejections")
	}
}

func TestRegistryRestoreRejectsBadBundle(t *testing.T) {
	r, _, _ := registryFixture(t)
	if _, err := r.RestoreAllJSON([]byte("{")); err == nil {
		t.Error("malformed bundle accepted")
	}
	bad, err := json.Marshal(registryState{Version: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RestoreAllJSON(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong-version bundle error = %v", err)
	}
}

// FuzzRestoreAllJSON: a snapshot bundle is read off a disk another build
// wrote. Whatever the bytes, RestoreAllJSON does not panic; a controller
// the report does not call restored — the bundle was refused as a whole,
// carried no entry for it, or its entry was rejected — is in the state it
// was in; and what was accepted round-trips: a fresh registry restores
// the result's MarshalState and marshals to the same bytes.
func FuzzRestoreAllJSON(f *testing.F) {
	f.Add([]byte(goldenRegistry))
	f.Add([]byte(`{"version":1,"controllers":{"loop":` + goldenLoopAdaptive + `,"absent":{}}}`)) // sq and mul stay cold
	f.Add([]byte(strings.Replace(goldenRegistry, `"count":8`, `"count":-1`, 1)))                 // loop rejected
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := goldenRegistryOf(t, true)
		before := map[string]string{}
		for _, c := range r.Controllers() {
			b, err := c.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			before[c.Name()] = string(b)
		}
		rep, err := r.RestoreAllJSON(data)
		for _, c := range r.Controllers() {
			after, merr := c.MarshalState()
			if merr != nil {
				t.Fatalf("%s no longer marshals: %v", c.Name(), merr)
			}
			if (err != nil || rep[c.Name()] != "restored") && string(after) != before[c.Name()] {
				t.Fatalf("%s (%q, bundle error %v) changed state:\n was %s\n now %s", c.Name(), rep[c.Name()], err, before[c.Name()], after)
			}
		}
		if err != nil {
			return
		}
		bundle, err := r.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		fresh := goldenRegistryOf(t, false)
		if err := fresh.RestoreStateJSON(bundle); err != nil {
			t.Fatalf("a fresh registry refuses what this one marshals: %v\n%s", err, bundle)
		}
		if again, err := fresh.MarshalState(); err != nil || string(again) != string(bundle) {
			t.Fatalf("round trip changed the bundle (%v):\n out %s\nback %s", err, bundle, again)
		}
	})
}

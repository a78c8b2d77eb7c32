package experiments

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// parsePct turns "12.34%" into 0.1234.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", s, err)
	}
	return v / 100
}

// parseNorm turns "85.3" into 0.853.
func parseNorm(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad normalized cell %q: %v", s, err)
	}
	return v / 100
}

var tinyOpts = Options{Seed: 42, Scale: 0.1}

func TestFig6Shape(t *testing.T) {
	tbl, err := Run("fig6", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(calibrationKnots) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(calibrationKnots))
	}
	// QoS loss non-increasing in M; throughput improvement non-increasing
	// in M; loss positive at 0.1N.
	prevLoss, prevImp := 2.0, 1e9
	for i, row := range tbl.Rows {
		loss := parsePct(t, row[1])
		imp := parsePct(t, row[2])
		if loss > prevLoss+1e-9 {
			t.Errorf("row %d: loss %v increased", i, loss)
		}
		if imp > prevImp+1e-9 {
			t.Errorf("row %d: improvement %v increased", i, imp)
		}
		prevLoss, prevImp = loss, imp
	}
	first := parsePct(t, tbl.Rows[0][1])
	if first <= 0 {
		t.Error("loss at 0.1N should be positive")
	}
	if imp := parsePct(t, tbl.Rows[0][2]); imp < 0.10 {
		t.Errorf("improvement at 0.1N = %v, want substantial", imp)
	}
}

func TestFig10And11Shape(t *testing.T) {
	t10, err := Run("fig10", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	t11, err := Run("fig11", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Rows) != 6 || len(t11.Rows) != 6 {
		t.Fatalf("rows = %d/%d, want 6", len(t10.Rows), len(t11.Rows))
	}
	// Base row is 100/100 with 0 loss.
	if t10.Rows[0][1] != "100.0" || t10.Rows[0][2] != "100.0" {
		t.Errorf("base row = %v", t10.Rows[0])
	}
	if l := parsePct(t, t11.Rows[0][1]); l != 0 {
		t.Errorf("base loss = %v", l)
	}
	// The M-* versions improve throughput and reduce energy, with
	// smaller M improving more; loss grows as M shrinks.
	var prevThr float64
	for i := 1; i <= 4; i++ { // M-10N .. M-N
		thr := parseNorm(t, t10.Rows[i][1])
		en := parseNorm(t, t10.Rows[i][2])
		if thr < 1.0 {
			t.Errorf("%s throughput %v below base", t10.Rows[i][0], thr)
		}
		if en > 1.0 {
			t.Errorf("%s energy %v above base", t10.Rows[i][0], en)
		}
		if i > 1 && thr+1e-9 < prevThr {
			t.Errorf("throughput not increasing as M shrinks at %s", t10.Rows[i][0])
		}
		prevThr = thr
	}
	lossM10 := parsePct(t, t11.Rows[1][1])
	lossM1 := parsePct(t, t11.Rows[4][1])
	if lossM1 < lossM10 {
		t.Errorf("loss at M-N (%v) below loss at M-10N (%v)", lossM1, lossM10)
	}
	// Adaptive version present and effective.
	thrPro := parseNorm(t, t10.Rows[5][1])
	if thrPro <= 1.0 {
		t.Errorf("M-PRO throughput %v not above base", thrPro)
	}
}

func TestFig12Shape(t *testing.T) {
	tbl, err := Run("fig12", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Success rate per version must be non-increasing in offered load.
	cols := len(tbl.Columns)
	for c := 1; c < cols; c++ {
		prev := 2.0
		for _, row := range tbl.Rows {
			v := parsePct(t, row[c])
			if v > prev+1e-9 {
				t.Errorf("col %d: success rate increased with load", c)
			}
			prev = v
		}
	}
	// At 60% load everyone succeeds fully.
	for c := 1; c < cols; c++ {
		if v := parsePct(t, tbl.Rows[0][c]); v < 0.99 {
			t.Errorf("col %d at 60%% load: success %v", c, v)
		}
	}
	// Approximated versions should hold up at higher loads than base:
	// at 120% load, M-N's success rate must exceed base's.
	var load120 []string
	for _, row := range tbl.Rows {
		if row[0] == "120" {
			load120 = row
		}
	}
	if load120 == nil {
		t.Fatal("no 120% load row")
	}
	base := parsePct(t, load120[1])
	mn := parsePct(t, load120[5])
	if mn <= base {
		t.Errorf("at 120%% load, M-N success %v should beat base %v", mn, base)
	}
}

func TestFig13Shape(t *testing.T) {
	tbl, err := Run("fig13", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatal("too few rows")
	}
	// Last row compares the largest set with itself: zero difference.
	last := tbl.Rows[len(tbl.Rows)-1]
	if d := parsePct(t, last[2]); d != 0 {
		t.Errorf("self-difference = %v", d)
	}
	// All differences should be small (robust model).
	for _, row := range tbl.Rows {
		if d := parsePct(t, row[2]); d > 0.05 {
			t.Errorf("training size %s: estimate differs by %v", row[0], d)
		}
	}
}

func TestFig14Converges(t *testing.T) {
	tbl, err := Run("fig14", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no trace rows")
	}
	// M must be non-decreasing over the trace and end above its start.
	first, err1 := strconv.ParseFloat(tbl.Rows[0][1], 64)
	lastRow := tbl.Rows[len(tbl.Rows)-1]
	last, err2 := strconv.ParseFloat(lastRow[1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad M cells: %v %v", err1, err2)
	}
	if last <= first {
		t.Errorf("M did not grow: %v -> %v", first, last)
	}
	foundConverged := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "first met") {
			foundConverged = true
		}
	}
	if !foundConverged {
		t.Errorf("recalibration did not converge; notes: %v", tbl.Notes)
	}
	// Window losses must broadly decrease: the first window is far above
	// the SLA, the last near or below it.
	firstLoss := parsePct(t, tbl.Rows[0][2])
	lastLoss := parsePct(t, tbl.Rows[len(tbl.Rows)-1][2])
	if firstLoss < 0.10 {
		t.Errorf("first window loss %v suspiciously low for M=0.1N", firstLoss)
	}
	if lastLoss > 0.06 {
		t.Errorf("final window loss %v did not approach the 2%% SLA", lastLoss)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tinyOpts); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsRegistered(t *testing.T) {
	ids := IDs()
	want := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig6"}
	for _, w := range want {
		found := false
		for _, id := range ids {
			if id == w {
				found = true
			}
		}
		if !found {
			t.Errorf("id %s not registered", w)
		}
	}
	if Title("fig6") == "" {
		t.Error("fig6 has no title")
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"demo", "a", "1", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

// The calibration phase's worker fan-out must not change the built model:
// measureAll gives every input its own slot and the model folds the slots
// in input order, so any worker count yields the bit-identical model.
func TestCalibrationWorkersProduceIdenticalModel(t *testing.T) {
	f, err := newSearchFixture(Options{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	queries := f.calQueries[:120]
	serial, err := f.loopModel(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		f.workers = workers
		m, err := f.loopModel(queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d model differs from serial:\n got %s\nwant %s", workers, got, want)
		}
	}
}

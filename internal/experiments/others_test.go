package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var eonOpts = Options{Seed: 42, Scale: 0.05}

func TestFig15Shape(t *testing.T) {
	tbl, err := Run("fig15", eonOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (N=5..9 + base)", len(tbl.Rows))
	}
	// Time and energy grow monotonically with N and stay below base.
	prevTime := 0.0
	for i := 0; i < 5; i++ {
		tm := parseNorm(t, tbl.Rows[i][1])
		en := parseNorm(t, tbl.Rows[i][2])
		if tm <= prevTime {
			t.Errorf("row %d: time %v not increasing", i, tm)
		}
		if tm >= 1 || en >= 1 {
			t.Errorf("row %d: version not cheaper than base (%v, %v)", i, tm, en)
		}
		prevTime = tm
	}
	// N=5 should cost roughly 25% of base (25 vs 100 passes).
	if tm := parseNorm(t, tbl.Rows[0][1]); tm < 0.15 || tm > 0.45 {
		t.Errorf("N=5 time %v, want ~0.25-0.35", tm)
	}
}

func TestFig16Shape(t *testing.T) {
	tbl, err := Run("fig16", eonOpts)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for i := 0; i < 5; i++ {
		loss := parsePct(t, tbl.Rows[i][1])
		if loss <= 0 {
			t.Errorf("row %d: zero loss", i)
		}
		if loss > prev+1e-9 {
			t.Errorf("row %d: loss %v not decreasing with N", i, loss)
		}
		if loss > 0.25 {
			t.Errorf("row %d: loss %v implausibly large", i, loss)
		}
		prev = loss
	}
	if base := parsePct(t, tbl.Rows[5][1]); base != 0 {
		t.Errorf("base loss = %v", base)
	}
}

func TestFig17Shape(t *testing.T) {
	tbl, err := Run("fig17", eonOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatal("too few rows")
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if d := parsePct(t, last[2]); d != 0 {
		t.Errorf("self-difference = %v", d)
	}
	for _, row := range tbl.Rows {
		if d := parsePct(t, row[2]); d > 0.03 {
			t.Errorf("training size %s differs by %v; model not robust", row[0], d)
		}
	}
}

var cgaOpts = Options{Seed: 42, Scale: 0.12}

func TestFig18Shape(t *testing.T) {
	tbl, err := Run("fig18", cgaOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(cgaFractions)+1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	prev := 0.0
	for i := 0; i < len(cgaFractions); i++ {
		tm := parseNorm(t, tbl.Rows[i][1])
		if tm <= prev || tm >= 1 {
			t.Errorf("row %d time %v not increasing below base", i, tm)
		}
		prev = tm
	}
	// G = half base should cost roughly half.
	half := parseNorm(t, tbl.Rows[2][1])
	if half < 0.4 || half > 0.75 {
		t.Errorf("half-G time = %v, want ~0.5-0.65", half)
	}
}

func TestFig19Shape(t *testing.T) {
	tbl, err := Run("fig19", cgaOpts)
	if err != nil {
		t.Fatal(err)
	}
	prev := 10.0
	for i := 0; i < len(cgaFractions); i++ {
		loss := parsePct(t, tbl.Rows[i][1])
		if loss > prev+1e-9 {
			t.Errorf("row %d loss %v not decreasing with G", i, loss)
		}
		prev = loss
	}
	// Half the generations: paper says loss stays "reasonable" (<10%).
	if loss := parsePct(t, tbl.Rows[2][1]); loss > 0.12 {
		t.Errorf("half-G loss %v > 12%%", loss)
	}
}

func TestFig20Shape(t *testing.T) {
	tbl, err := Run("fig20", cgaOpts)
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if d := parsePct(t, last[2]); d != 0 {
		t.Errorf("self-difference = %v", d)
	}
	// CGA is the noisiest app in the paper; allow a looser but still
	// bounded difference.
	for _, row := range tbl.Rows {
		if d := parsePct(t, row[2]); d > 0.10 {
			t.Errorf("training size %s differs by %v", row[0], d)
		}
	}
}

var dftOpts = Options{Seed: 42, Scale: 0.08}

func TestFig21Shape(t *testing.T) {
	tbl, err := Run("fig21", dftOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 13 { // 6 C + 6 C+S + base
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Every approximated version is cheaper than base; C+S cheaper than
	// the matching C; lower digits cheaper than higher digits.
	for i := 0; i < 12; i++ {
		tm := parseNorm(t, tbl.Rows[i][1])
		if tm >= 1 {
			t.Errorf("%s time %v not below base", tbl.Rows[i][0], tm)
		}
	}
	for i := 0; i < 6; i++ {
		c := parseNorm(t, tbl.Rows[i][1])
		cs := parseNorm(t, tbl.Rows[i+6][1])
		if cs >= c {
			t.Errorf("C+S(%s) %v not cheaper than C %v", tbl.Rows[i][0], cs, c)
		}
	}
	// The best version saves roughly 20% (paper: 26.3%).
	if best := parseNorm(t, tbl.Rows[6][1]); best > 0.90 || best < 0.60 {
		t.Errorf("C+S(3.2) time = %v, want ~0.75-0.85", best)
	}
}

func TestFig22Shape(t *testing.T) {
	tbl, err := Run("fig22", dftOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 3.2-digit versions show small positive loss; >= 5.2 digits are
	// effectively lossless (paper: no loss beyond 7.3 digits; loss at
	// 3.2 digits only 0.22%).
	c32 := parsePct(t, tbl.Rows[0][1])
	cs32 := parsePct(t, tbl.Rows[6][1])
	if c32 <= 0 || cs32 <= 0 {
		t.Error("3.2-digit versions show zero loss; experiment vacuous")
	}
	if cs32 > 0.01 {
		t.Errorf("C+S(3.2) loss %v > 1%%", cs32)
	}
	for i := 2; i < 6; i++ { // 7.3 digits and up
		if l := parsePct(t, tbl.Rows[i][1]); l > 1e-5 {
			t.Errorf("%s loss %v not negligible", tbl.Rows[i][0], l)
		}
	}
}

var bsOpts = Options{Seed: 42, Scale: 0.15}

func TestFig8aShape(t *testing.T) {
	tbl, err := Run("fig8a", bsOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 5 { // x + 4 versions
		t.Fatalf("columns = %v", tbl.Columns)
	}
	// At every x, higher Taylor degree has no larger loss; loss grows
	// with |x| for each version.
	for _, row := range tbl.Rows {
		for c := 2; c < 5; c++ {
			lo := parsePct(t, row[c-1])
			hi := parsePct(t, row[c])
			if hi > lo+1e-9 {
				t.Errorf("x=%s: e-version %d loss %v above lower version %v",
					row[0], c, hi, lo)
			}
		}
	}
}

func TestFig8bShape(t *testing.T) {
	tbl, err := Run("fig8b", bsOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The log loss curves form a V around x = 1.
	minAt := ""
	minLoss := 1e9
	for _, row := range tbl.Rows {
		l := parsePct(t, row[1])
		if l < minLoss {
			minLoss = l
			minAt = row[0]
		}
	}
	x, err2 := parseFloatCell(minAt)
	if err2 != nil {
		t.Fatal(err2)
	}
	if x < 0.8 || x > 1.2 {
		t.Errorf("lg(2) loss minimum at x=%v, want near 1", x)
	}
}

func TestFig8cShape(t *testing.T) {
	tbl, err := Run("fig8c", bsOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tbl.Rows {
		rows[r[0]] = r
	}
	// e(cb) keeps loss far below fixed e(3) while still improving.
	eCb := parsePct(t, rows["e(cb)"][1])
	e3 := parsePct(t, rows["e(3)"][1])
	if eCb >= e3 {
		t.Errorf("e(cb) loss %v not below e(3) %v", eCb, e3)
	}
	if imp := parsePct(t, rows["e(cb)"][2]); imp <= 0 {
		t.Errorf("e(cb) improvement %v", imp)
	}
	// Combined version beats single-function versions on improvement.
	comb := parsePct(t, rows["e(cb)+lg(4)"][2])
	if comb <= parsePct(t, rows["e(cb)"][2]) {
		t.Errorf("combined improvement %v not above e(cb) alone", comb)
	}
	// The exp range notes must include at least one approximate and the
	// precise region.
	joined := strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "precise") || !strings.Contains(joined, "e(") {
		t.Errorf("range notes incomplete: %v", tbl.Notes)
	}
}

func TestFig23And24Shape(t *testing.T) {
	t23, err := Run("fig23", bsOpts)
	if err != nil {
		t.Fatal(err)
	}
	t24, err := Run("fig24", bsOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Combined version: substantial time/energy reduction...
	var combTime float64
	for _, r := range t23.Rows {
		if r[0] == "e(cb)+lg(4)" {
			combTime = parseNorm(t, r[1])
		}
	}
	if combTime == 0 || combTime > 0.92 {
		t.Errorf("combined version time %v, want < 0.92 of base", combTime)
	}
	// ...with sub-1% QoS loss (paper: < 0.8%).
	for _, r := range t24.Rows {
		if r[0] == "e(cb)+lg(4)" {
			if l := parsePct(t, r[1]); l > 0.01 {
				t.Errorf("combined loss %v > 1%%", l)
			}
		}
	}
	// The combination search note names a selected combo.
	found := false
	for _, n := range t23.Notes {
		if strings.Contains(n, "combination search selected") {
			found = true
		}
	}
	if !found {
		t.Errorf("no combination-search note: %v", t23.Notes)
	}
}

func TestOverheadNegligible(t *testing.T) {
	// "Indistinguishable" allows scheduler noise; 10% is a generous
	// bound that still catches a real per-iteration overhead. The ratio is
	// wall clock against wall clock while the other packages' tests share
	// the box, so the experiment gets up to five goes: a real overhead
	// shows in every one of them, a neighbour's burst in one or two.
	var read []float64
	for attempt := 0; attempt < 5; attempt++ {
		tbl, err := Run("overhead", Options{Seed: 42, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := parseFloatCell(tbl.Rows[1][2])
		if err != nil {
			t.Fatal(err)
		}
		read = append(read, rel)
		if rel <= 1.10 {
			t.Logf("green overhead ratios read: %v", read)
			return
		}
	}
	t.Errorf("green overhead ratio > 1.10 on every attempt: %v", read)
}

func TestBackoffConverges(t *testing.T) {
	tbl, err := Run("backoff", Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "converged") && !strings.Contains(n, "did not") {
			converged = true
		}
	}
	if !converged {
		t.Errorf("backoff did not converge: %v", tbl.Notes)
	}
	// Final row loss must be at or below the SLA.
	last := tbl.Rows[len(tbl.Rows)-1]
	if l := parsePct(t, last[3]); l > 0.02 {
		t.Errorf("final loss %v > SLA", l)
	}
}

func parseFloatCell(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

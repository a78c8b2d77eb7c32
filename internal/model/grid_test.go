package model

import (
	"encoding/json"
	"math"
	"testing"
)

func grid() Grid2D {
	return Grid2D{XLo: 0, XHi: 10, YLo: 0, YHi: 4, NX: 5, NY: 2}
}

func TestNewCalibration2DValidation(t *testing.T) {
	if _, err := NewCalibration2D("f", 10, nil, nil, grid()); err == nil {
		t.Error("empty versions accepted")
	}
	if _, err := NewCalibration2D("f", 10, []string{"a"}, []float64{1, 2}, grid()); err == nil {
		t.Error("mismatched names/work accepted")
	}
	if _, err := NewCalibration2D("f", 0, []string{"a"}, []float64{1}, grid()); err == nil {
		t.Error("zero precise work accepted")
	}
	if _, err := NewCalibration2D("f", 10, []string{"a"}, []float64{0}, grid()); err == nil {
		t.Error("zero version work accepted")
	}
	bad := grid()
	bad.NX = 0
	if _, err := NewCalibration2D("f", 10, []string{"a"}, []float64{1}, bad); err == nil {
		t.Error("zero-cell grid accepted")
	}
	bad = grid()
	bad.XHi = bad.XLo
	if _, err := NewCalibration2D("f", 10, []string{"a"}, []float64{1}, bad); err == nil {
		t.Error("degenerate bounds accepted")
	}
}

func TestGrid2DCellIndex(t *testing.T) {
	g := grid()
	// Corner cells.
	if got := g.CellIndex(0, 0); got != 0 {
		t.Errorf("cell(0,0) = %d", got)
	}
	if got := g.CellIndex(9.99, 3.99); got != 9 {
		t.Errorf("cell(max) = %d, want 9", got)
	}
	// Out of range.
	for _, p := range [][2]float64{{-1, 0}, {10, 0}, {0, -1}, {0, 4}} {
		if got := g.CellIndex(p[0], p[1]); got != -1 {
			t.Errorf("cell(%v) = %d, want -1", p, got)
		}
	}
	// Mid cell: x in [2,4) is column 1; y in [2,4) is row 1 -> 1*5+1 = 6.
	if got := g.CellIndex(3, 3); got != 6 {
		t.Errorf("cell(3,3) = %d, want 6", got)
	}
}

func build2D(t *testing.T) *FuncModel2D {
	t.Helper()
	cal, err := NewCalibration2D("f2", 18, []string{"v0", "v1"}, []float64{4, 8}, grid())
	if err != nil {
		t.Fatal(err)
	}
	// v0 is good only for small x; v1 is good everywhere sampled.
	for x := 0.5; x < 10; x++ {
		for y := 0.5; y < 4; y++ {
			loss0 := 0.001
			if x > 4 {
				loss0 = 0.2
			}
			if err := cal.AddSample(0, x, y, loss0); err != nil {
				t.Fatal(err)
			}
			if err := cal.AddSample(1, x, y, 0.002); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFuncModel2DSelection(t *testing.T) {
	m := build2D(t)
	// Small x: cheap v0 qualifies.
	if got := m.SelectVersion(1, 1, 0.01); got != 0 {
		t.Errorf("small-x selection = %d, want v0", got)
	}
	// Large x: only v1 qualifies.
	if got := m.SelectVersion(8, 1, 0.01); got != 1 {
		t.Errorf("large-x selection = %d, want v1", got)
	}
	// Impossible SLA: precise.
	if got := m.SelectVersion(1, 1, 1e-9); got != PreciseVersion {
		t.Errorf("tight-SLA selection = %d, want precise", got)
	}
	// Outside the grid: precise.
	if got := m.SelectVersion(100, 1, 0.5); got != PreciseVersion {
		t.Errorf("outside-grid selection = %d, want precise", got)
	}
}

func TestFuncModel2DEmptyCellsArePrecise(t *testing.T) {
	cal, err := NewCalibration2D("f2", 18, []string{"v0"}, []float64{4}, grid())
	if err != nil {
		t.Fatal(err)
	}
	// Only one cell sampled.
	if err := cal.AddSample(0, 1, 1, 0.001); err != nil {
		t.Fatal(err)
	}
	m, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SelectVersion(1, 1, 0.01); got != 0 {
		t.Errorf("sampled cell = %d, want v0", got)
	}
	if got := m.SelectVersion(9, 3, 0.01); got != PreciseVersion {
		t.Errorf("unsampled cell = %d, want precise", got)
	}
}

func TestCalibration2DAddSampleValidation(t *testing.T) {
	cal, _ := NewCalibration2D("f2", 18, []string{"v0"}, []float64{4}, grid())
	if err := cal.AddSample(1, 0, 0, 0); err == nil {
		t.Error("bad version accepted")
	}
	if err := cal.AddSample(0, 0, 0, -1); err == nil {
		t.Error("negative loss accepted")
	}
	if err := cal.AddSample(0, 0, 0, math.NaN()); err == nil {
		t.Error("NaN loss accepted")
	}
	// Outside-grid samples are silently dropped, not errors.
	if err := cal.AddSample(0, 1e9, 0, 0.1); err != nil {
		t.Errorf("outside-grid sample errored: %v", err)
	}
	if _, err := cal.Build(); err != ErrNoData {
		t.Errorf("build with no in-grid samples err = %v, want ErrNoData", err)
	}
}

func TestFuncModel2DJSONRoundTrip(t *testing.T) {
	m := build2D(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 FuncModel2D
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Name != m.Name || m2.Grid != m.Grid || len(m2.Versions) != len(m.Versions) {
		t.Errorf("round trip lost data: %+v", m2)
	}
	if got := m2.SelectVersion(1, 1, 0.01); got != 0 {
		t.Errorf("round-tripped selection = %d", got)
	}
}

func TestFuncModelJSONRoundTrip(t *testing.T) {
	m, err := BuildFuncModel("f", 18, []VersionCurve{
		{Name: "v", Work: 4, Samples: []FuncSample{{X: 0, Loss: 0.1}, {X: 1, Loss: 0.2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 FuncModel
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Name != "f" || m2.PreciseWork != 18 || len(m2.Versions) != 1 {
		t.Errorf("round trip lost data: %+v", m2)
	}
	if got := m2.Versions[0].LossAt(0.5); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("round-tripped LossAt = %v", got)
	}
}

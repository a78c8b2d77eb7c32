package model

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the extension the paper leaves as future work in
// footnote 1: "Our current implementation constructs models based on a
// single input parameter. However, this can be extended to multiple
// parameters." FuncModel2D models a function of two numeric parameters on
// a regular grid; selection picks, per cell, the cheapest version whose
// binned loss meets the SLA.

// Grid2D is a regular 2-parameter binning over [XLo, XHi) x [YLo, YHi).
type Grid2D struct {
	XLo float64 `json:"x_lo"`
	XHi float64 `json:"x_hi"`
	YLo float64 `json:"y_lo"`
	YHi float64 `json:"y_hi"`
	NX  int     `json:"nx"`
	NY  int     `json:"ny"`
}

// CellIndex returns the flat cell index for (x, y), cy·NX + cx, or -1
// when outside the grid.
func (g *Grid2D) CellIndex(x, y float64) int {
	if x < g.XLo || x >= g.XHi || y < g.YLo || y >= g.YHi {
		return -1
	}
	cx := int((x - g.XLo) / (g.XHi - g.XLo) * float64(g.NX))
	cy := int((y - g.YLo) / (g.YHi - g.YLo) * float64(g.NY))
	if cx >= g.NX {
		cx = g.NX - 1
	}
	if cy >= g.NY {
		cy = g.NY - 1
	}
	return cy*g.NX + cx
}

// validate checks grid parameters.
func (g *Grid2D) validate() error {
	if !(g.XLo < g.XHi) || !(g.YLo < g.YHi) {
		return errors.New("model: grid bounds must be ordered")
	}
	if g.NX < 1 || g.NY < 1 {
		return errors.New("model: grid needs at least one cell per axis")
	}
	return nil
}

// VersionGrid holds one approximate version's mean loss per grid cell.
type VersionGrid struct {
	// Name labels the version.
	Name string `json:"name"`
	// Work is the per-call work units of this version.
	Work float64 `json:"work"`
	// Loss holds the mean calibrated loss per cell (NaN: no samples).
	Loss []float64 `json:"loss"`
	// Count holds the per-cell sample counts.
	Count []int `json:"count"`
}

// FuncModel2D is the two-parameter QoS model.
type FuncModel2D struct {
	Name        string        `json:"name"`
	PreciseWork float64       `json:"precise_work"`
	Grid        Grid2D        `json:"grid"`
	Versions    []VersionGrid `json:"versions"`
}

// Calibration2D accumulates (x, y, loss) samples per version.
type Calibration2D struct {
	m *FuncModel2D
}

// NewCalibration2D prepares 2-parameter calibration for the named
// versions (increasing precision) with per-call work units, over the
// given grid.
func NewCalibration2D(name string, preciseWork float64, names []string, work []float64, grid Grid2D) (*Calibration2D, error) {
	if len(names) == 0 || len(names) != len(work) {
		return nil, errors.New("model: version names and work must be non-empty and match")
	}
	if preciseWork <= 0 {
		return nil, errors.New("model: precise work must be positive")
	}
	if err := grid.validate(); err != nil {
		return nil, err
	}
	m := &FuncModel2D{Name: name, PreciseWork: preciseWork, Grid: grid}
	cells := grid.NX * grid.NY
	for i := range names {
		if work[i] <= 0 {
			return nil, fmt.Errorf("model: non-positive work for version %q", names[i])
		}
		m.Versions = append(m.Versions, VersionGrid{
			Name: names[i], Work: work[i],
			Loss:  make([]float64, cells),
			Count: make([]int, cells),
		})
	}
	return &Calibration2D{m: m}, nil
}

// AddSample records one calibration measurement: version (index) at
// input (x, y) showed the given fractional loss. Samples outside the
// grid are counted as dropped and reported by Build.
func (c *Calibration2D) AddSample(version int, x, y, loss float64) error {
	if version < 0 || version >= len(c.m.Versions) {
		return fmt.Errorf("model: version index %d out of range", version)
	}
	if loss < 0 || math.IsNaN(loss) {
		return fmt.Errorf("model: invalid loss %v", loss)
	}
	idx := c.m.Grid.CellIndex(x, y)
	if idx < 0 {
		return nil // outside the calibrated domain: precise at runtime anyway
	}
	v := &c.m.Versions[version]
	v.Loss[idx] += loss
	v.Count[idx]++
	return nil
}

// Build finalizes the model, averaging per-cell losses. Cells without
// samples keep +Inf loss so selection falls back to precise there.
func (c *Calibration2D) Build() (*FuncModel2D, error) {
	total := 0
	for vi := range c.m.Versions {
		v := &c.m.Versions[vi]
		for i := range v.Loss {
			if v.Count[i] > 0 {
				v.Loss[i] /= float64(v.Count[i])
				total += v.Count[i]
			} else {
				v.Loss[i] = math.Inf(1)
			}
		}
	}
	if total == 0 {
		return nil, ErrNoData
	}
	return c.m, nil
}

// SelectVersion returns the cheapest version meeting the SLA at (x, y),
// or PreciseVersion when none does or the point is outside the grid.
func (m *FuncModel2D) SelectVersion(x, y, sla float64) int {
	idx := m.Grid.CellIndex(x, y)
	if idx < 0 {
		return PreciseVersion
	}
	best := PreciseVersion
	bestWork := m.PreciseWork
	for vi := range m.Versions {
		v := &m.Versions[vi]
		if v.Loss[idx] <= sla && v.Work < bestWork {
			best = vi
			bestWork = v.Work
		}
	}
	return best
}

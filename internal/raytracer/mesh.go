package raytracer

import (
	"errors"
	"math"
)

// Triangle is a polygonal primitive with a precomputed geometric normal.
// 252.eon rasterizes "3D polygonal models"; meshes of triangles let the
// reproduction render faceted geometry alongside the analytic spheres.
type Triangle struct {
	A, B, C Vec
	Mat     Material
	normal  Vec
}

// NewTriangle builds a triangle; the normal follows the right-hand rule
// over (B-A, C-A). Degenerate (zero-area) triangles are rejected.
func NewTriangle(a, b, c Vec, mat Material) (Triangle, error) {
	n := b.Sub(a).Cross(c.Sub(a))
	if n.Len() == 0 {
		return Triangle{}, errors.New("raytracer: degenerate triangle")
	}
	return Triangle{A: a, B: b, C: c, Mat: mat, normal: n.Norm()}, nil
}

// intersect implements the Möller–Trumbore ray/triangle test, returning
// the ray parameter and whether a hit in front of the origin occurred.
func (t *Triangle) intersect(r Ray) (float64, bool) {
	e1 := t.B.Sub(t.A)
	e2 := t.C.Sub(t.A)
	p := r.Dir.Cross(e2)
	det := e1.Dot(p)
	if det > -1e-12 && det < 1e-12 {
		return 0, false // parallel
	}
	inv := 1 / det
	s := r.Origin.Sub(t.A)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, false
	}
	q := s.Cross(e1)
	v := r.Dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, false
	}
	d := e2.Dot(q) * inv
	if d < eps {
		return 0, false
	}
	return d, true
}

// Mesh is a set of triangles sharing a bounding sphere for quick
// rejection.
type Mesh struct {
	Tris   []Triangle
	center Vec
	radius float64
}

// NewMesh wraps triangles with a bounding sphere.
func NewMesh(tris []Triangle) (*Mesh, error) {
	if len(tris) == 0 {
		return nil, errors.New("raytracer: empty mesh")
	}
	var c Vec
	for _, t := range tris {
		c = c.Add(t.A).Add(t.B).Add(t.C)
	}
	c = c.Scale(1 / float64(3*len(tris)))
	r := 0.0
	for _, t := range tris {
		for _, v := range []Vec{t.A, t.B, t.C} {
			if d := v.Sub(c).Len(); d > r {
				r = d
			}
		}
	}
	return &Mesh{Tris: tris, center: c, radius: r}, nil
}

// intersect finds the nearest triangle hit closer than best.
func (m *Mesh) intersect(r Ray, best float64) (hit, bool) {
	// Bounding-sphere rejection.
	oc := r.Origin.Sub(m.center)
	b := oc.Dot(r.Dir)
	c := oc.Dot(oc) - m.radius*m.radius
	if c > 0 && b > 0 {
		return hit{}, false // outside and pointing away
	}
	if b*b-c < 0 {
		return hit{}, false // misses the bounding sphere
	}
	out := hit{t: best}
	found := false
	for i := range m.Tris {
		tri := &m.Tris[i]
		if d, ok := tri.intersect(r); ok && d < out.t {
			n := tri.normal
			if n.Dot(r.Dir) > 0 {
				n = n.Scale(-1) // face the ray
			}
			out = hit{t: d, point: r.At(d), normal: n, mat: tri.Mat}
			found = true
		}
	}
	return out, found
}

// icosahedron vertices on the unit sphere.
func icosahedronVertices() []Vec {
	phi := (1 + math.Sqrt(5)) / 2
	raw := []Vec{
		{-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
		{0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
		{phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1},
	}
	for i := range raw {
		raw[i] = raw[i].Norm()
	}
	return raw
}

// icosahedron face indices.
var icosahedronFaces = [][3]int{
	{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
	{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
	{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
	{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
}

// Icosahedron returns the 20-face polygonal sphere approximation at the
// given center and radius, optionally subdivided: each subdivision level
// splits every face into four, projecting new vertices back onto the
// sphere (80, 320, ... faces).
func Icosahedron(center Vec, radius float64, mat Material, subdivisions int) (*Mesh, error) {
	if radius <= 0 {
		return nil, errors.New("raytracer: non-positive radius")
	}
	if subdivisions < 0 || subdivisions > 5 {
		return nil, errors.New("raytracer: subdivisions out of range [0,5]")
	}
	type face [3]Vec
	verts := icosahedronVertices()
	faces := make([]face, 0, len(icosahedronFaces))
	for _, f := range icosahedronFaces {
		faces = append(faces, face{verts[f[0]], verts[f[1]], verts[f[2]]})
	}
	for s := 0; s < subdivisions; s++ {
		next := make([]face, 0, 4*len(faces))
		for _, f := range faces {
			ab := f[0].Add(f[1]).Scale(0.5).Norm()
			bc := f[1].Add(f[2]).Scale(0.5).Norm()
			ca := f[2].Add(f[0]).Scale(0.5).Norm()
			next = append(next,
				face{f[0], ab, ca}, face{f[1], bc, ab},
				face{f[2], ca, bc}, face{ab, bc, ca})
		}
		faces = next
	}
	tris := make([]Triangle, 0, len(faces))
	for _, f := range faces {
		a := center.Add(f[0].Scale(radius))
		b := center.Add(f[1].Scale(radius))
		c := center.Add(f[2].Scale(radius))
		t, err := NewTriangle(a, b, c, mat)
		if err != nil {
			return nil, err
		}
		tris = append(tris, t)
	}
	return NewMesh(tris)
}

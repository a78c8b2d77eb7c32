package raytracer

import (
	"math"
	"testing"
)

func mustTriangle(t *testing.T, a, b, c Vec) Triangle {
	t.Helper()
	tri, err := NewTriangle(a, b, c, Material{Diffuse: Vec{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tri
}

func TestNewTriangleRejectsDegenerate(t *testing.T) {
	if _, err := NewTriangle(Vec{0, 0, 0}, Vec{1, 1, 1}, Vec{2, 2, 2}, Material{}); err == nil {
		t.Error("collinear triangle accepted")
	}
	if _, err := NewTriangle(Vec{0, 0, 0}, Vec{0, 0, 0}, Vec{1, 0, 0}, Material{}); err == nil {
		t.Error("repeated vertex accepted")
	}
}

func TestTriangleNormal(t *testing.T) {
	tri := mustTriangle(t, Vec{0, 0, 0}, Vec{1, 0, 0}, Vec{0, 1, 0})
	if n := tri.normal; math.Abs(n.Z-1) > 1e-12 {
		t.Errorf("normal = %v, want +Z", n)
	}
}

func TestTriangleIntersect(t *testing.T) {
	tri := mustTriangle(t, Vec{-1, -1, -5}, Vec{1, -1, -5}, Vec{0, 1, -5})
	// Straight through the centroid.
	d, ok := tri.intersect(Ray{Origin: Vec{0, -0.2, 0}, Dir: Vec{0, 0, -1}})
	if !ok {
		t.Fatal("missed triangle")
	}
	if math.Abs(d-5) > 1e-9 {
		t.Errorf("t = %v, want 5", d)
	}
	// Outside the triangle.
	if _, ok := tri.intersect(Ray{Origin: Vec{5, 5, 0}, Dir: Vec{0, 0, -1}}); ok {
		t.Error("hit outside the triangle")
	}
	// Parallel ray.
	if _, ok := tri.intersect(Ray{Origin: Vec{0, 0, 0}, Dir: Vec{1, 0, 0}}); ok {
		t.Error("parallel ray hit")
	}
	// Behind the origin.
	if _, ok := tri.intersect(Ray{Origin: Vec{0, -0.2, -10}, Dir: Vec{0, 0, -1}}); ok {
		t.Error("hit behind the origin")
	}
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(nil); err == nil {
		t.Error("empty mesh accepted")
	}
}

func TestMeshIntersectNearest(t *testing.T) {
	near := mustTriangle(t, Vec{-1, -1, -3}, Vec{1, -1, -3}, Vec{0, 1, -3})
	far := mustTriangle(t, Vec{-1, -1, -8}, Vec{1, -1, -8}, Vec{0, 1, -8})
	m, err := NewMesh([]Triangle{far, near})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := m.intersect(Ray{Origin: Vec{0, -0.2, 0}, Dir: Vec{0, 0, -1}}, math.Inf(1))
	if !ok {
		t.Fatal("missed mesh")
	}
	if math.Abs(h.t-3) > 1e-9 {
		t.Errorf("t = %v, want nearest 3", h.t)
	}
	// Normal faces the ray.
	if h.normal.Dot(Vec{0, 0, -1}) >= 0 {
		t.Errorf("normal %v does not face the ray", h.normal)
	}
	// best closer than the mesh: no hit reported.
	if _, ok := m.intersect(Ray{Origin: Vec{0, -0.2, 0}, Dir: Vec{0, 0, -1}}, 1); ok {
		t.Error("reported hit beyond best")
	}
}

func TestMeshBoundingSphereRejection(t *testing.T) {
	tri := mustTriangle(t, Vec{-1, -1, -5}, Vec{1, -1, -5}, Vec{0, 1, -5})
	m, err := NewMesh([]Triangle{tri})
	if err != nil {
		t.Fatal(err)
	}
	// Pointing away from the mesh entirely.
	if _, ok := m.intersect(Ray{Origin: Vec{0, 0, 0}, Dir: Vec{0, 0, 1}}, math.Inf(1)); ok {
		t.Error("hit while pointing away")
	}
	// Offset far to the side.
	if _, ok := m.intersect(Ray{Origin: Vec{100, 0, 0}, Dir: Vec{0, 0, -1}}, math.Inf(1)); ok {
		t.Error("hit from far off axis")
	}
}

func TestIcosahedronValidation(t *testing.T) {
	if _, err := Icosahedron(Vec{}, 0, Material{}, 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := Icosahedron(Vec{}, 1, Material{}, -1); err == nil {
		t.Error("negative subdivisions accepted")
	}
	if _, err := Icosahedron(Vec{}, 1, Material{}, 6); err == nil {
		t.Error("excessive subdivisions accepted")
	}
}

func TestIcosahedronFaceCounts(t *testing.T) {
	for sub, want := range map[int]int{0: 20, 1: 80, 2: 320} {
		m, err := Icosahedron(Vec{0, 0, 0}, 1, Material{}, sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Tris) != want {
			t.Errorf("subdiv %d: %d faces, want %d", sub, len(m.Tris), want)
		}
	}
}

func TestIcosahedronVerticesOnSphere(t *testing.T) {
	center := Vec{2, 3, 4}
	const radius = 1.5
	m, err := Icosahedron(center, radius, Material{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range m.Tris {
		for _, v := range []Vec{tri.A, tri.B, tri.C} {
			if d := v.Sub(center).Len(); math.Abs(d-radius) > 1e-9 {
				t.Fatalf("vertex %v at distance %v, want %v", v, d, radius)
			}
		}
	}
}

func TestIcosahedronRayHitsFromAllSides(t *testing.T) {
	m, err := Icosahedron(Vec{0, 0, 0}, 1, Material{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []Vec{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for _, d := range dirs {
		origin := d.Scale(-5)
		h, ok := m.intersect(Ray{Origin: origin, Dir: d}, math.Inf(1))
		if !ok {
			t.Fatalf("ray from %v missed the icosahedron", origin)
		}
		// Entry point roughly radius away from center (within facet sag).
		if r := h.point.Len(); r < 0.85 || r > 1.01 {
			t.Fatalf("hit at radius %v", r)
		}
	}
}

func TestSceneRendersPolygonalModel(t *testing.T) {
	// A camera looking straight at the scene's icosahedral centerpiece
	// must produce different pixels than the same scene without it.
	with := NewScene(1)
	without := NewScene(1)
	without.Meshes = nil
	cam := Camera{Pos: Vec{0, 2, 8}, LookAt: Vec{0, 1.6, 0}, FOV: 40 * math.Pi / 180}
	a, _, err := Render(with, cam, 16, 12, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Render(without, cam, 16, 12, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range a.Pix {
		diff += math.Abs(a.Pix[i] - b.Pix[i])
	}
	if diff == 0 {
		t.Error("polygonal model invisible in render")
	}
}

// Package raytracer implements a Monte-Carlo path tracer in the style of
// Kajiya's rendering-equation algorithm — the algorithm the paper's
// 252.eon substrate uses. The tracer refines the image with one sample
// per pixel per pass; the pass loop is the approximable "main loop": QoS
// improvement per pass diminishes as the estimate converges, so the loop
// can be terminated early with controlled pixel-difference loss, which is
// exactly the eon experiment (Figures 15–17).
//
// The SPEC reference 3D model is not redistributable, so the scene is a
// deterministic procedurally-generated arrangement of diffuse and emissive
// spheres above a ground plane; inputs vary by random camera placement, as
// the paper's inputs do ("100 input data-sets by randomly changing the
// camera view").
package raytracer

import (
	"errors"
	"math"
	"math/rand"

	"green/internal/workload"
)

// Material describes a surface: diffuse reflectance and optional emission.
type Material struct {
	Diffuse  Vec
	Emission Vec
}

// Sphere is the scene primitive.
type Sphere struct {
	Center Vec
	Radius float64
	Mat    Material
}

// Scene holds the renderable world: spheres and triangle meshes over an
// infinite ground plane at y = 0, lit by emissive spheres and a sky dome.
type Scene struct {
	Spheres  []Sphere
	Meshes   []*Mesh
	GroundY  float64
	Ground   Material
	SkyZen   Vec // sky color at zenith
	SkyHoriz Vec // sky color at horizon
}

// NewScene builds the deterministic reference scene: a grid of diffuse
// spheres with varied colors plus two emissive spheres acting as area
// lights.
func NewScene(seed int64) *Scene {
	rng := workload.NewRand(seed)
	s := &Scene{
		GroundY:  0,
		Ground:   Material{Diffuse: Vec{0.45, 0.45, 0.45}},
		SkyZen:   Vec{0.35, 0.45, 0.70},
		SkyHoriz: Vec{0.80, 0.85, 0.95},
	}
	for gx := -2; gx <= 2; gx++ {
		for gz := -2; gz <= 2; gz++ {
			r := 0.35 + 0.35*rng.Float64()
			s.Spheres = append(s.Spheres, Sphere{
				Center: Vec{
					float64(gx)*2.2 + 0.5*rng.NormFloat64(),
					r,
					float64(gz)*2.2 + 0.5*rng.NormFloat64(),
				},
				Radius: r,
				Mat: Material{Diffuse: Vec{
					0.2 + 0.7*rng.Float64(),
					0.2 + 0.7*rng.Float64(),
					0.2 + 0.7*rng.Float64(),
				}},
			})
		}
	}
	// Two area lights.
	s.Spheres = append(s.Spheres,
		Sphere{Center: Vec{-4, 7, -2}, Radius: 1.6,
			Mat: Material{Emission: Vec{14, 13, 11}}},
		Sphere{Center: Vec{5, 6, 4}, Radius: 1.1,
			Mat: Material{Emission: Vec{9, 10, 12}}},
	)
	// The polygonal centerpiece: a faceted icosahedral model (80 faces),
	// standing in for the eon reference 3D polygonal model.
	mesh, err := Icosahedron(Vec{0, 1.6, 0}, 1.3,
		Material{Diffuse: Vec{0.85, 0.75, 0.35}}, 1)
	if err == nil { // construction is deterministic; err only on bad args
		s.Meshes = append(s.Meshes, mesh)
	}
	return s
}

// Camera is a pinhole camera.
type Camera struct {
	Pos, LookAt Vec
	FOV         float64 // vertical field of view, radians
}

// RandomCamera places a camera on a ring around the scene looking at its
// center, standing in for the paper's randomized camera-view inputs.
func RandomCamera(seed int64) Camera {
	rng := workload.NewRand(seed)
	angle := 2 * math.Pi * rng.Float64()
	dist := 9 + 4*rng.Float64()
	height := 2.5 + 3*rng.Float64()
	return Camera{
		Pos:    Vec{dist * math.Cos(angle), height, dist * math.Sin(angle)},
		LookAt: Vec{0, 0.8, 0},
		FOV:    50 * math.Pi / 180,
	}
}

// Image is a linear-RGB framebuffer; Pix has length W*H*3.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a black framebuffer.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h*3)}
}

const (
	maxDepth = 3
	eps      = 1e-4
)

// hit is an intersection record.
type hit struct {
	t      float64
	point  Vec
	normal Vec
	mat    Material
}

// intersect finds the nearest intersection of r with the scene.
func (s *Scene) intersect(r Ray) (hit, bool) {
	best := hit{t: math.Inf(1)}
	found := false
	for i := range s.Spheres {
		sp := &s.Spheres[i]
		oc := r.Origin.Sub(sp.Center)
		b := oc.Dot(r.Dir)
		c := oc.Dot(oc) - sp.Radius*sp.Radius
		disc := b*b - c
		if disc <= 0 {
			continue
		}
		sq := math.Sqrt(disc)
		t := -b - sq
		if t < eps {
			t = -b + sq
		}
		if t < eps || t >= best.t {
			continue
		}
		p := r.At(t)
		best = hit{t: t, point: p, normal: p.Sub(sp.Center).Norm(), mat: sp.Mat}
		found = true
	}
	// Triangle meshes.
	for _, m := range s.Meshes {
		if h, ok := m.intersect(r, best.t); ok {
			best = h
			found = true
		}
	}
	// Ground plane y = GroundY.
	if r.Dir.Y != 0 {
		t := (s.GroundY - r.Origin.Y) / r.Dir.Y
		if t > eps && t < best.t {
			p := r.At(t)
			best = hit{t: t, point: p, normal: Vec{0, 1, 0}, mat: s.Ground}
			found = true
		}
	}
	return best, found
}

// sky returns the environment radiance for a direction.
func (s *Scene) sky(d Vec) Vec {
	t := 0.5 * (d.Y + 1)
	return s.SkyHoriz.Scale(1 - t).Add(s.SkyZen.Scale(t))
}

// trace evaluates the rendering equation along r with cosine-weighted
// diffuse bounces (Kajiya-style path tracing, fixed depth). rays counts
// every traced ray, including bounces, for the work model.
func (s *Scene) trace(r Ray, depth int, rng *rand.Rand, rays *int64) Vec {
	*rays++
	h, ok := s.intersect(r)
	if !ok {
		return s.sky(r.Dir)
	}
	col := h.mat.Emission
	if depth >= maxDepth {
		return col
	}
	// Cosine-weighted hemisphere sample about the normal.
	u1, u2 := rng.Float64(), rng.Float64()
	rad := math.Sqrt(u1)
	theta := 2 * math.Pi * u2
	// Orthonormal basis around the normal.
	w := h.normal
	var a Vec
	if math.Abs(w.X) > 0.9 {
		a = Vec{0, 1, 0}
	} else {
		a = Vec{1, 0, 0}
	}
	u := w.Cross(a).Norm()
	v := w.Cross(u)
	dir := u.Scale(rad * math.Cos(theta)).
		Add(v.Scale(rad * math.Sin(theta))).
		Add(w.Scale(math.Sqrt(1 - u1))).Norm()
	bounce := s.trace(Ray{Origin: h.point.Add(h.normal.Scale(eps)), Dir: dir},
		depth+1, rng, rays)
	return col.Add(h.mat.Diffuse.Mul(bounce))
}

// Renderer accumulates passes of one sample per pixel. The pass loop is
// the approximable main loop of the eon experiment: after m passes the
// framebuffer holds the mean of the first m per-pixel samples, so a
// prefix of passes is exactly what early termination would have produced.
//
// A Renderer owns one random source for its life and reseeds it per
// pixel sample, so a pass allocates nothing; it is used by one goroutine
// at a time.
type Renderer struct {
	scene  *Scene
	cam    Camera
	w, h   int
	seed   int64
	rng    *rand.Rand
	accum  []float64
	passes int
	rays   int64
}

// NewRenderer prepares an incremental render of scene from cam at the
// given resolution. seed determinizes the Monte-Carlo sampling per input.
func NewRenderer(scene *Scene, cam Camera, w, h int, seed int64) (*Renderer, error) {
	if scene == nil {
		return nil, errors.New("raytracer: nil scene")
	}
	if w <= 0 || h <= 0 {
		return nil, errors.New("raytracer: non-positive resolution")
	}
	return &Renderer{
		scene: scene, cam: cam, w: w, h: h, seed: seed,
		rng:   workload.NewRand(seed),
		accum: make([]float64, w*h*3),
	}, nil
}

// Pass renders one more sample per pixel. Sampling for pass p is a pure
// function of (seed, pass, pixel), so stopping after m passes yields a
// prefix-stable result: Seed resets the source and its read position, so
// the reseeded source draws what a fresh one seeded alike would.
func (r *Renderer) Pass() {
	p := r.passes
	// Camera basis.
	forward := r.cam.LookAt.Sub(r.cam.Pos).Norm()
	right := forward.Cross(Vec{0, 1, 0}).Norm()
	up := right.Cross(forward)
	halfH := math.Tan(r.cam.FOV / 2)
	halfW := halfH * float64(r.w) / float64(r.h)

	rng := r.rng
	for y := 0; y < r.h; y++ {
		for x := 0; x < r.w; x++ {
			pix := (y*r.w + x)
			rng.Seed(workload.Split(r.seed, int64(p)<<32|int64(pix)))
			// Jittered position within the pixel.
			jx := (float64(x) + rng.Float64()) / float64(r.w)
			jy := (float64(y) + rng.Float64()) / float64(r.h)
			dir := forward.
				Add(right.Scale((2*jx - 1) * halfW)).
				Add(up.Scale((1 - 2*jy) * halfH)).Norm()
			c := r.scene.trace(Ray{Origin: r.cam.Pos, Dir: dir}, 0, rng, &r.rays)
			r.accum[pix*3] += c.X
			r.accum[pix*3+1] += c.Y
			r.accum[pix*3+2] += c.Z
		}
	}
	r.passes++
}

// Passes returns the number of completed passes.
func (r *Renderer) Passes() int { return r.passes }

// Rays returns the total rays traced so far (the work units).
func (r *Renderer) Rays() int64 { return r.rays }

// Snapshot returns the current tone-mapped image (mean of accumulated
// samples, clamped to [0, 1]).
func (r *Renderer) Snapshot() *Image {
	img := NewImage(r.w, r.h)
	if r.passes == 0 {
		return img
	}
	inv := 1 / float64(r.passes)
	for i, v := range r.accum {
		t := v * inv
		if t > 1 {
			t = 1
		}
		img.Pix[i] = t
	}
	return img
}

// Render is the convenience one-shot API: render spp samples per pixel.
func Render(scene *Scene, cam Camera, w, h, spp int, seed int64) (*Image, int64, error) {
	r, err := NewRenderer(scene, cam, w, h, seed)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < spp; i++ {
		r.Pass()
	}
	return r.Snapshot(), r.Rays(), nil
}

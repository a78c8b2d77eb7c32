package raytracer

import (
	"math"
	"testing"

	"green/internal/metrics"
	"green/internal/workload"
)

func TestVecOps(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := a.Add(b); got != (Vec{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Vec{4, 10, 18}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); got != (Vec{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec{1, 0, 0}).Cross(Vec{0, 1, 0}); got != (Vec{0, 0, 1}) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec{3, 4, 0}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	n := (Vec{0, 0, 7}).Norm()
	if math.Abs(n.Len()-1) > 1e-12 {
		t.Errorf("Norm length = %v", n.Len())
	}
	if z := (Vec{}).Norm(); z != (Vec{}) {
		t.Errorf("Norm of zero = %v", z)
	}
}

func TestRayAt(t *testing.T) {
	r := Ray{Origin: Vec{1, 0, 0}, Dir: Vec{0, 1, 0}}
	if got := r.At(2.5); got != (Vec{1, 2.5, 0}) {
		t.Errorf("At = %v", got)
	}
}

func TestNewSceneDeterministic(t *testing.T) {
	a, b := NewScene(3), NewScene(3)
	if len(a.Spheres) != len(b.Spheres) {
		t.Fatal("sphere count differs")
	}
	for i := range a.Spheres {
		if a.Spheres[i] != b.Spheres[i] {
			t.Fatal("scene not deterministic")
		}
	}
	// Scene must contain at least one emissive sphere.
	lit := false
	for _, s := range a.Spheres {
		if s.Mat.Emission.Len() > 0 {
			lit = true
		}
		if s.Radius <= 0 {
			t.Errorf("non-positive radius %v", s.Radius)
		}
	}
	if !lit {
		t.Error("no lights in scene")
	}
}

func TestIntersectSphereAndGround(t *testing.T) {
	s := &Scene{
		Spheres: []Sphere{{Center: Vec{0, 1, -5}, Radius: 1,
			Mat: Material{Diffuse: Vec{1, 0, 0}}}},
		GroundY: 0,
		Ground:  Material{Diffuse: Vec{0.5, 0.5, 0.5}},
	}
	// Straight at the sphere.
	h, ok := s.intersect(Ray{Origin: Vec{0, 1, 0}, Dir: Vec{0, 0, -1}})
	if !ok {
		t.Fatal("missed sphere")
	}
	if math.Abs(h.t-4) > 1e-9 {
		t.Errorf("t = %v, want 4", h.t)
	}
	if h.normal.Z <= 0 {
		t.Errorf("normal %v should face the ray", h.normal)
	}
	// Downward: ground.
	h, ok = s.intersect(Ray{Origin: Vec{10, 2, 10}, Dir: Vec{0, -1, 0}})
	if !ok {
		t.Fatal("missed ground")
	}
	if h.normal != (Vec{0, 1, 0}) {
		t.Errorf("ground normal = %v", h.normal)
	}
	// Upward into the sky: nothing.
	if _, ok := s.intersect(Ray{Origin: Vec{0, 5, 0}, Dir: Vec{0, 1, 0}}); ok {
		t.Error("hit something in the sky")
	}
}

func TestRandomCameraLooksAtScene(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := RandomCamera(seed)
		if c.Pos.Y <= 0 {
			t.Errorf("camera below ground: %+v", c)
		}
		d := c.LookAt.Sub(c.Pos).Len()
		if d < 5 {
			t.Errorf("camera too close: %v", d)
		}
	}
	if RandomCamera(5) != RandomCamera(5) {
		t.Error("camera not deterministic")
	}
}

func TestRendererValidation(t *testing.T) {
	if _, err := NewRenderer(nil, Camera{}, 8, 8, 1); err == nil {
		t.Error("nil scene accepted")
	}
	if _, err := NewRenderer(NewScene(1), Camera{}, 0, 8, 1); err == nil {
		t.Error("zero width accepted")
	}
}

func TestRenderDeterministicAndPrefixStable(t *testing.T) {
	scene := NewScene(1)
	cam := RandomCamera(2)
	img1, rays1, err := Render(scene, cam, 12, 9, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	img2, rays2, err := Render(scene, cam, 12, 9, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rays1 != rays2 {
		t.Errorf("ray counts differ: %d vs %d", rays1, rays2)
	}
	d, err := metrics.PixelDiff(img1.Pix, img2.Pix)
	if err != nil || d != 0 {
		t.Errorf("same-seed renders differ: %v (%v)", d, err)
	}

	// Prefix stability: an 8-pass renderer's state after 4 passes equals
	// a 4-pass render.
	r, err := NewRenderer(scene, cam, 12, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.Pass()
	}
	snap4 := r.Snapshot()
	d, _ = metrics.PixelDiff(img1.Pix, snap4.Pix)
	if d != 0 {
		t.Errorf("prefix not stable: diff %v", d)
	}
	for i := 0; i < 4; i++ {
		r.Pass()
	}
	if r.Passes() != 8 {
		t.Errorf("passes = %d", r.Passes())
	}
}

func TestImageInRangeAndLit(t *testing.T) {
	img, rays, err := Render(NewScene(1), RandomCamera(3), 16, 12, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rays <= int64(16*12*3) {
		t.Errorf("rays = %d, want more than primaries (bounces)", rays)
	}
	sum := 0.0
	for _, v := range img.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of range", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Error("image fully black")
	}
}

func TestQoSConvergesWithPasses(t *testing.T) {
	// More passes must approach the high-sample reference: the QoS loss
	// versus the reference decreases (the diminishing-returns behavior
	// the eon approximation exploits).
	scene := NewScene(1)
	cam := RandomCamera(4)
	const w, h = 16, 12
	ref, _, err := Render(scene, cam, w, h, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRenderer(scene, cam, w, h, 9)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for _, target := range []int{1, 4, 16} {
		for r.Passes() < target {
			r.Pass()
		}
		d, err := metrics.PixelDiff(ref.Pix, r.Snapshot().Pix)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, d)
	}
	if !(losses[0] > losses[1] && losses[1] > losses[2]) {
		t.Errorf("loss not decreasing with passes: %v", losses)
	}
	if losses[2] <= 0 {
		t.Errorf("16-pass image suspiciously identical to 64-pass reference")
	}
}

func TestSnapshotBeforeAnyPassIsBlack(t *testing.T) {
	r, err := NewRenderer(NewScene(1), RandomCamera(1), 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Snapshot().Pix {
		if v != 0 {
			t.Fatal("pre-pass snapshot not black")
		}
	}
}

// freshSourcePass is Pass as it was written before the Renderer kept a
// source: a new source per pixel sample, seeded by (seed, pass, pixel).
func freshSourcePass(r *Renderer) {
	p := r.passes
	forward := r.cam.LookAt.Sub(r.cam.Pos).Norm()
	right := forward.Cross(Vec{0, 1, 0}).Norm()
	up := right.Cross(forward)
	halfH := math.Tan(r.cam.FOV / 2)
	halfW := halfH * float64(r.w) / float64(r.h)
	for y := 0; y < r.h; y++ {
		for x := 0; x < r.w; x++ {
			pix := y*r.w + x
			rng := workload.NewRand(workload.Split(r.seed, int64(p)<<32|int64(pix)))
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

// TestPassMatchesFreshSource holds the reseeded source to the fresh
// source per sample it replaced: the same accumulated samples, images
// and ray counts, bit for bit, after every pass.
func TestPassMatchesFreshSource(t *testing.T) {
	scene := NewScene(7)
	for _, size := range [][2]int{{10, 8}, {7, 5}} {
		for _, seed := range []int64{1, 2, 58, -3} {
			cam := RandomCamera(seed + 10)
			got, err := NewRenderer(scene, cam, size[0], size[1], seed)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewRenderer(scene, cam, size[0], size[1], seed)
			for p := 1; p <= 4; p++ {
				got.Pass()
				freshSourcePass(want)
				if got.Rays() != want.Rays() {
					t.Fatalf("%dx%d seed %d pass %d: %d rays, want %d", size[0], size[1], seed, p, got.Rays(), want.Rays())
				}
				for i := range want.accum {
					if math.Float64bits(got.accum[i]) != math.Float64bits(want.accum[i]) {
						t.Fatalf("%dx%d seed %d pass %d: accum[%d] = %v, want %v", size[0], size[1], seed, p, i, got.accum[i], want.accum[i])
					}
				}
				g, w := got.Snapshot().Pix, want.Snapshot().Pix
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("%dx%d seed %d pass %d: pixel %d = %v, want %v", size[0], size[1], seed, p, i, g[i], w[i])
					}
				}
			}
		}
	}
}

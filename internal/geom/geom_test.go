package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("sub")
	}
	if a.Mul(2) != (Vec3{2, 4, 6}) {
		t.Error("mul")
	}
	if a.Dot(b) != 32 {
		t.Error("dot")
	}
	if a.Cross(b) != (Vec3{-3, 6, -3}) {
		t.Error("cross")
	}
	if !almost((Vec3{3, 4, 0}).Len(), 5) {
		t.Error("len")
	}
	if !almost(a.Lerp(b, 0.5).X, 2.5) {
		t.Error("lerp")
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{10, 0, 0}.Normalize()
	if !almost(v.Len(), 1) || !almost(v.X, 1) {
		t.Errorf("normalize = %v", v)
	}
	if (Vec3{}).Normalize() != (Vec3{}) {
		t.Error("zero vector should normalize to zero")
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampf(ax), clampf(ay), clampf(az)}
		b := Vec3{clampf(bx), clampf(by), clampf(bz)}
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-6 && math.Abs(c.Dot(b)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return math.Mod(v, 100)
}

func TestSphereIntersect(t *testing.T) {
	s := Sphere{C: Vec3{0, 0, 10}, R: 2}
	r := Ray{O: Vec3{}, D: Vec3{0, 0, 1}}
	h := s.Intersect(r, eps, 1e9)
	if !h.OK || !almost(h.T, 8) {
		t.Fatalf("hit = %+v, want t=8", h)
	}
	if !almost(h.Normal.Z, -1) {
		t.Errorf("normal = %v, want -Z", h.Normal)
	}
	// Miss.
	if s.Intersect(Ray{O: Vec3{5, 0, 0}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
		t.Error("offset ray should miss")
	}
	// Inside the sphere: nearest root is behind tMin, second root valid.
	h = s.Intersect(Ray{O: Vec3{0, 0, 10}, D: Vec3{0, 0, 1}}, eps, 1e9)
	if !h.OK || !almost(h.T, 2) {
		t.Errorf("inside hit = %+v, want t=2", h)
	}
	// Range-limited.
	if s.Intersect(r, eps, 5).OK {
		t.Error("tMax should cull the hit")
	}
}

func TestAABBIntersect(t *testing.T) {
	b := AABB{Min: Vec3{-1, -1, 4}, Max: Vec3{1, 1, 6}}
	h := b.Intersect(Ray{O: Vec3{}, D: Vec3{0, 0, 1}}, eps, 1e9)
	if !h.OK || !almost(h.T, 4) {
		t.Fatalf("hit = %+v, want t=4", h)
	}
	if !almost(h.Normal.Z, -1) {
		t.Errorf("normal = %v, want -Z", h.Normal)
	}
	// Side hit has ±X normal.
	h = b.Intersect(Ray{O: Vec3{5, 0, 5}, D: Vec3{-1, 0, 0}}, eps, 1e9)
	if !h.OK || !almost(h.T, 4) || !almost(h.Normal.X, 1) {
		t.Fatalf("side hit = %+v", h)
	}
	// Parallel ray outside the slab misses.
	if b.Intersect(Ray{O: Vec3{3, 0, 0}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
		t.Error("parallel outside should miss")
	}
	// Parallel ray inside slab but crossing the box hits.
	h = b.Intersect(Ray{O: Vec3{0.5, 0, 0}, D: Vec3{0, 0, 1}}, eps, 1e9)
	if !h.OK {
		t.Error("parallel inside slab should hit")
	}
	// Ray starting inside is not shaded.
	if b.Intersect(Ray{O: Vec3{0, 0, 5}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
		t.Error("origin inside box should not hit")
	}
}

func TestAABBRandomRaysConsistent(t *testing.T) {
	// Property: if Intersect reports a hit, the hit point is on the box
	// boundary (within tolerance) and T is within range.
	b := AABB{Min: Vec3{-2, 0, -2}, Max: Vec3{2, 3, 2}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		o := Vec3{rng.Float64()*20 - 10, rng.Float64()*20 - 10, rng.Float64()*20 - 10}
		d := Vec3{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}.Normalize()
		if d == (Vec3{}) {
			continue
		}
		h := b.Intersect(Ray{O: o, D: d}, 1e-9, 1e9)
		if !h.OK {
			continue
		}
		p := h.Point
		onX := almost(p.X, b.Min.X) || almost(p.X, b.Max.X)
		onY := almost(p.Y, b.Min.Y) || almost(p.Y, b.Max.Y)
		onZ := almost(p.Z, b.Min.Z) || almost(p.Z, b.Max.Z)
		if !onX && !onY && !onZ {
			t.Fatalf("hit point %v not on boundary (ray %v→%v)", p, o, d)
		}
		inside := p.X >= b.Min.X-1e-6 && p.X <= b.Max.X+1e-6 &&
			p.Y >= b.Min.Y-1e-6 && p.Y <= b.Max.Y+1e-6 &&
			p.Z >= b.Min.Z-1e-6 && p.Z <= b.Max.Z+1e-6
		if !inside {
			t.Fatalf("hit point %v outside box", p)
		}
	}
}

func TestPlaneIntersect(t *testing.T) {
	p := Plane{Y: 0}
	h := p.Intersect(Ray{O: Vec3{0, 5, 0}, D: Vec3{0, -1, 0}}, eps, 1e9)
	if !h.OK || !almost(h.T, 5) || !almost(h.Normal.Y, 1) {
		t.Fatalf("hit = %+v", h)
	}
	// From below, the normal faces down.
	h = p.Intersect(Ray{O: Vec3{0, -5, 0}, D: Vec3{0, 1, 0}}, eps, 1e9)
	if !h.OK || !almost(h.Normal.Y, -1) {
		t.Fatalf("below hit = %+v", h)
	}
	// Parallel ray misses.
	if p.Intersect(Ray{O: Vec3{0, 5, 0}, D: Vec3{1, 0, 0}}, eps, 1e9).OK {
		t.Error("parallel should miss")
	}
}

func TestCameraRays(t *testing.T) {
	c := NewCamera(Vec3{0, 0, 0}, Vec3{0, 0, 10}, 90, 1)
	center := c.RayThrough(0.5, 0.5)
	if !almost(center.D.Z, 1) || !almost(center.D.X, 0) || !almost(center.D.Y, 0) {
		t.Fatalf("center ray = %v", center.D)
	}
	// Top-left NDC should point up-left in camera space.
	tl := c.RayThrough(0, 0)
	if tl.D.Y <= 0 {
		t.Errorf("top ray should have +Y: %v", tl.D)
	}
	// Looking down −Z (right-handed), screen-right is world +X.
	cz := NewCamera(Vec3{0, 0, 0}, Vec3{0, 0, -10}, 90, 1)
	right := cz.RayThrough(1, 0.5)
	left := cz.RayThrough(0, 0.5)
	if right.D.X <= left.D.X {
		t.Error("u should increase toward screen right")
	}
	// Unit direction.
	if !almost(tl.D.Len(), 1) {
		t.Errorf("|d| = %f", tl.D.Len())
	}
	if !almost(c.Forward().Z, 1) {
		t.Errorf("forward = %v", c.Forward())
	}
}

func TestCameraStraightUp(t *testing.T) {
	// Degenerate forward ≈ worldUp must still produce an orthonormal basis.
	c := NewCamera(Vec3{}, Vec3{0, 10, 0}, 60, 16.0/9)
	r := c.RayThrough(0.5, 0.5)
	if !almost(r.D.Y, 1) {
		t.Fatalf("center ray = %v, want +Y", r.D)
	}
}

func TestRayAt(t *testing.T) {
	r := Ray{O: Vec3{1, 2, 3}, D: Vec3{0, 0, 1}}
	if r.At(4) != (Vec3{1, 2, 7}) {
		t.Error("ray.At")
	}
}

func TestTriangleIntersect(t *testing.T) {
	tr := Triangle{A: Vec3{-1, -1, 5}, B: Vec3{1, -1, 5}, C: Vec3{0, 1, 5}}
	// Center hit.
	h := tr.Intersect(Ray{O: Vec3{}, D: Vec3{0, 0, 1}}, eps, 1e9)
	if !h.OK || !almost(h.T, 5) {
		t.Fatalf("center hit = %+v", h)
	}
	// Normal faces the viewer (−Z here).
	if !almost(h.Normal.Z, -1) {
		t.Errorf("normal = %v, want -Z", h.Normal)
	}
	// From behind: the normal flips.
	h = tr.Intersect(Ray{O: Vec3{0, 0, 10}, D: Vec3{0, 0, -1}}, eps, 1e9)
	if !h.OK || !almost(h.Normal.Z, 1) {
		t.Errorf("back hit = %+v", h)
	}
	// Miss outside an edge.
	if tr.Intersect(Ray{O: Vec3{2, 0, 0}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
		t.Error("ray outside the triangle should miss")
	}
	// Miss past a vertex.
	if tr.Intersect(Ray{O: Vec3{0, 1.5, 0}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
		t.Error("ray above the apex should miss")
	}
	// Parallel ray misses.
	if tr.Intersect(Ray{O: Vec3{0, 0, 0}, D: Vec3{1, 0, 0}}, eps, 1e9).OK {
		t.Error("parallel ray should miss")
	}
	// Range culling.
	if tr.Intersect(Ray{O: Vec3{}, D: Vec3{0, 0, 1}}, eps, 4).OK {
		t.Error("tMax should cull")
	}
}

func TestTriangleBarycentricCoverage(t *testing.T) {
	// Rays through random points inside the triangle hit; points reflected
	// outside miss.
	tr := Triangle{A: Vec3{0, 0, 3}, B: Vec3{2, 0, 3}, C: Vec3{0, 2, 3}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		u := rng.Float64()
		v := rng.Float64() * (1 - u)
		// Interior point.
		p := tr.A.Add(tr.B.Sub(tr.A).Mul(u)).Add(tr.C.Sub(tr.A).Mul(v))
		in := tr.Intersect(Ray{O: Vec3{p.X, p.Y, 0}, D: Vec3{0, 0, 1}}, eps, 1e9)
		if u+v < 0.99 && u > 0.01 && v > 0.01 && !in.OK {
			t.Fatalf("interior point (%f,%f) missed", u, v)
		}
		// A point clearly outside (negative u).
		q := tr.A.Add(tr.B.Sub(tr.A).Mul(-0.2 - u))
		if tr.Intersect(Ray{O: Vec3{q.X, q.Y, 0}, D: Vec3{0, 0, 1}}, eps, 1e9).OK {
			t.Fatalf("exterior point hit at u=%f", u)
		}
	}
}

func TestRayTermsMatchRayThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rv := func() Vec3 { return Vec3{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10} }
		c := NewCamera(rv(), rv(), 1+rng.Float64()*178, 0.3+rng.Float64()*3)
		for i := 0; i < 50; i++ {
			u, v := rng.Float64(), rng.Float64()
			want := c.RayThrough(u, v).D
			if got := c.ColumnTerm(u).Add(c.RowTerm(v)).Normalize(); got != want {
				t.Fatalf("camera %+v (u,v)=(%v,%v): terms give %v, RayThrough %v", c, u, v, got, want)
			}
		}
	}
}

func TestProjectBounds(t *testing.T) {
	cam := NewCamera(Vec3{Y: 2}, Vec3{Y: 2, Z: 10}, 60, 16.0/9)
	const w, h = 320, 180
	unit := func(c Vec3) AABB { return AABB{Min: c.Sub(Vec3{1, 1, 1}), Max: c.Add(Vec3{1, 1, 1})} }

	x0, y0, x1, y1 := cam.ProjectBounds(unit(Vec3{Y: 2, Z: 20}), w, h)
	if !(x0 > 100 && x1 < 220 && y0 > 50 && y1 < 130 && x0 <= 160 && x1 > 160 && y0 <= 90 && y1 > 90) {
		t.Errorf("box ahead: rect [%d,%d)x[%d,%d) should sit tightly around the image centre", x0, x1, y0, y1)
	}
	// Tight to within the pixel of widening: the box's near face spans
	// ±1/19 of view depth, half the image height is tan 30°.
	if wantH := 2.0 / 19 / math.Tan(math.Pi/6) * h / 2; float64(y1-y0) > wantH+3 {
		t.Errorf("box ahead: rect is %d rows tall, the box about %.1f", y1-y0, wantH)
	}
	if x0, _, x1, _ := cam.ProjectBounds(unit(Vec3{Y: 2, Z: -20}), w, h); x0 != x1 {
		t.Error("a box behind the eye should be dropped")
	}
	if x0, _, x1, _ := cam.ProjectBounds(unit(Vec3{X: -60, Y: 2, Z: 20}), w, h); x0 != x1 {
		t.Error("a box off the side of the image should be dropped")
	}
	if _, y0, _, y1 := cam.ProjectBounds(unit(Vec3{Y: 60, Z: 20}), w, h); y0 != y1 {
		t.Error("a box above the top edge should be dropped")
	}
	for name, b := range map[string]AABB{
		"around the eye":            unit(Vec3{Y: 2}),
		"across the eye plane":      {Min: Vec3{X: 5, Y: 1, Z: -3}, Max: Vec3{X: 6, Y: 3, Z: 30}},
		"a corner on the plane":     {Min: Vec3{X: 5, Y: 1, Z: 0}, Max: Vec3{X: 6, Y: 3, Z: 30}},
		"a NaN corner":              {Min: Vec3{X: math.NaN(), Y: 1, Z: 5}, Max: Vec3{X: 6, Y: 3, Z: 30}},
		"an infinite extent":        {Min: Vec3{X: math.Inf(-1), Y: 1, Z: 5}, Max: Vec3{X: 6, Y: 3, Z: 30}},
		"beyond float64 when dot'd": {Min: Vec3{X: -1e308, Y: -1e308, Z: 5}, Max: Vec3{X: 1e308, Y: 1e308, Z: 1e308}},
	} {
		if x0, y0, x1, y1 := cam.ProjectBounds(b, w, h); x0 != 0 || y0 != 0 || x1 != w || y1 != h {
			t.Errorf("%s: rect [%d,%d)x[%d,%d), want the whole image", name, x0, x1, y0, y1)
		}
	}
	// A partly visible box is clipped to the image (this camera's right is
	// the world's −x).
	x0, y0, x1, y1 = cam.ProjectBounds(unit(Vec3{X: -16, Y: 2, Z: 16}), w, h)
	if x0 < 280 || x0 >= x1 || x1 != w || y0 >= y1 {
		t.Errorf("box over the right edge: rect [%d,%d)x[%d,%d)", x0, x1, y0, y1)
	}
}

// boundedShape is what the renderer bins: a shape with a box around it.
type boundedShape interface {
	Bounded
	Intersect(Ray, float64, float64) Hit
}

// fuzzShapes returns the box itself and shapes of the other kinds inside it.
func fuzzShapes(b AABB) []boundedShape {
	c := b.Center()
	r := math.Min(math.Abs(b.Max.X-b.Min.X), math.Min(math.Abs(b.Max.Y-b.Min.Y), math.Abs(b.Max.Z-b.Min.Z))) / 2
	return []boundedShape{
		b,
		Sphere{C: c, R: r},
		Triangle{A: b.Min, B: Vec3{b.Max.X, b.Min.Y, b.Max.Z}, C: b.Max},
		Triangle{A: Vec3{b.Min.X, b.Max.Y, b.Min.Z}, B: c, C: Vec3{b.Max.X, b.Max.Y, b.Min.Z}},
	}
}

// The conservativeness the renderer's candidate rectangles rest on: whatever
// the camera and the box, a pixel whose primary ray hits a shape lies inside
// the rectangle its bounds project to.
//
// "Whatever" stops where the intersection tests themselves stop meaning
// anything. Their rounding error moves a silhouette by up to ~1e-7 rad
// (Sphere.Intersect's b²−c cancels to about √ε of the distance; O−C cancels
// to ε·|O|/|O−C|), and the rectangle's margin is one pixel: so finite
// coordinates are folded into ±1e6, hits nearer than a near plane of 1e-3
// do not count, and a lens whose pixels are narrower than 1e-6 of the view
// depth — a zero aspect ratio, a field of view of a millionth of a degree —
// is skipped. Non-finite values are kept as they are.
func FuzzProjectBounds(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(0.0, 2.0, 0.0, 0.0, 1.0, 10.0, 60.0, 1.78, -1.0, 0.0, 7.0, 1.0, 2.0, 9.0, uint8(32), uint8(18))
	f.Add(0.0, 2.0, 0.0, 0.0, 1.0, 10.0, 60.0, 1.78, -1.0, 0.0, -2.0, 1.0, 4.0, 3.0, uint8(32), uint8(18))    // around the eye
	f.Add(0.0, 2.0, 0.0, 0.0, 1.0, 10.0, 60.0, 1.78, 3.0, 0.0, -9.0, 4.0, 4.0, 40.0, uint8(40), uint8(9))     // across the eye plane
	f.Add(0.0, 2.0, 0.0, 0.0, 1.0, 10.0, 60.0, 1.78, -1.0, 0.0, -9.0, 1.0, 2.0, -7.0, uint8(16), uint8(16))   // behind
	f.Add(0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 90.0, 1.0, -5.0, 6.0, -5.0, 5.0, 6.0, 5.0, uint8(24), uint8(24))      // straight up at a flat box
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 60.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, uint8(8), uint8(8))       // no view direction
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 179.9, 1.0, -1.0, -1.0, 0.001, 1.0, 1.0, 0.002, uint8(20), uint8(20)) // a sliver at the eye plane, wide lens
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 180.0, 0.0, -1.0, -1.0, 3.0, 1.0, 1.0, 4.0, uint8(20), uint8(20))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 270.0, 2.0, -1.0, -1.0, 3.0, 1.0, 1.0, 4.0, uint8(20), uint8(20)) // a lens past the half-turn
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0, 1.0, nan, -1.0, 3.0, 1.0, 1.0, 4.0, uint8(12), uint8(12))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0, 1.0, -inf, -1.0, 3.0, 1.0, inf, 4.0, uint8(12), uint8(12))
	f.Add(nan, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0, 1.0, -1.0, -1.0, 3.0, 1.0, 1.0, 4.0, uint8(12), uint8(12))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0, 1.0, 1.0, 1.0, 4.0, -1.0, -1.0, 3.0, uint8(12), uint8(12)) // Min and Max exchanged
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0, 1.0, 0.5, 0.5, 3.0, 0.5, 0.5, 3.0, uint8(12), uint8(12))   // a point
	f.Add(1e15, 0.0, 0.0, 1e15, 0.0, 5.0, 1.0, 1.0, 1e15, -1.0, 1e6, 1e15+1, 1.0, 2e6, uint8(30), uint8(30))
	f.Fuzz(func(t *testing.T, ex, ey, ez, tx, ty, tz, fov, aspect, x0, y0, z0, x1, y1, z1 float64, w8, h8 uint8) {
		w, h := int(w8%48), int(h8%48)
		fold := func(v float64) float64 {
			if math.IsInf(v, 0) {
				return v
			}
			return math.Mod(v, 1e6)
		}
		cam := NewCamera(Vec3{fold(ex), fold(ey), fold(ez)}, Vec3{fold(tx), fold(ty), fold(tz)}, fov, aspect)
		if 2*math.Abs(cam.halfW) < 1e-6*float64(w) || 2*math.Abs(cam.halfH) < 1e-6*float64(h) {
			t.Skip("pixels narrower than the intersection tests resolve")
		}
		box := AABB{Min: Vec3{fold(x0), fold(y0), fold(z0)}, Max: Vec3{fold(x1), fold(y1), fold(z1)}}
		for _, s := range fuzzShapes(box) {
			rx0, ry0, rx1, ry1 := cam.ProjectBounds(s.Bounds(), w, h)
			if rx0 < 0 || ry0 < 0 || rx1 > w || ry1 > h || rx0 > rx1 || ry0 > ry1 {
				t.Fatalf("%T %+v: rect [%d,%d)x[%d,%d) is not inside %dx%d", s, s, rx0, rx1, ry0, ry1, w, h)
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if x >= rx0 && x < rx1 && y >= ry0 && y < ry1 {
						continue
					}
					r := cam.RayThrough((float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
					if hit := s.Intersect(r, 1e-3, math.Inf(1)); hit.OK {
						t.Fatalf("camera %+v, %T %+v: the ray of pixel (%d,%d) of %dx%d hits at t=%v, outside the rect [%d,%d)x[%d,%d)",
							cam, s, s, x, y, w, h, hit.T, rx0, rx1, ry0, ry1)
					}
				}
			}
		}
	})
}

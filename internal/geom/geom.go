// Package geom provides the minimal 3D math substrate for the software
// renderer: vectors, rays, a pinhole camera, and ray intersection against
// planes, spheres and axis-aligned boxes. It is deliberately small — just
// what internal/render needs to produce game-like color frames with a real
// Z-buffer.
package geom

import "math"

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v − u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Mul returns v scaled by s.
func (v Vec3) Mul(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v×u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Len returns |v|.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v/|v|, or the zero vector if v is (near) zero.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l < 1e-12 {
		return Vec3{}
	}
	return v.Mul(1 / l)
}

// Lerp returns v + t·(u−v).
func (v Vec3) Lerp(u Vec3, t float64) Vec3 {
	return Vec3{
		v.X + t*(u.X-v.X),
		v.Y + t*(u.Y-v.Y),
		v.Z + t*(u.Z-v.Z),
	}
}

// Ray is a half-line with origin O and (unit) direction D.
type Ray struct {
	O, D Vec3
}

// At returns the point O + t·D.
func (r Ray) At(t float64) Vec3 { return r.O.Add(r.D.Mul(t)) }

// Hit describes a ray-object intersection.
type Hit struct {
	T      float64 // ray parameter of the intersection
	Point  Vec3
	Normal Vec3 // unit surface normal at Point, facing the ray origin
	OK     bool
}

// Sphere is a sphere with center C and radius R.
type Sphere struct {
	C Vec3
	R float64
}

// Intersect returns the nearest intersection of r with s at parameter
// t ∈ (tMin, tMax), if any.
func (s Sphere) Intersect(r Ray, tMin, tMax float64) Hit {
	oc := r.O.Sub(s.C)
	b := oc.Dot(r.D)
	c := oc.Dot(oc) - s.R*s.R
	disc := b*b - c
	if disc < 0 {
		return Hit{}
	}
	sq := math.Sqrt(disc)
	for _, t := range [2]float64{-b - sq, -b + sq} {
		if t > tMin && t < tMax {
			p := r.At(t)
			return Hit{T: t, Point: p, Normal: p.Sub(s.C).Normalize(), OK: true}
		}
	}
	return Hit{}
}

// Bounded is implemented by shapes that can report an axis-aligned
// bounding box; the renderer builds its BVH over bounded shapes.
type Bounded interface {
	Bounds() AABB
}

// Bounds returns the sphere's bounding box.
func (s Sphere) Bounds() AABB {
	r := Vec3{X: s.R, Y: s.R, Z: s.R}
	return AABB{Min: s.C.Sub(r), Max: s.C.Add(r)}
}

// AABB is an axis-aligned box with opposite corners Min and Max.
type AABB struct {
	Min, Max Vec3
}

// Bounds returns the box itself.
func (b AABB) Bounds() AABB { return b }

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{
		Min: Vec3{X: math.Min(b.Min.X, o.Min.X), Y: math.Min(b.Min.Y, o.Min.Y), Z: math.Min(b.Min.Z, o.Min.Z)},
		Max: Vec3{X: math.Max(b.Max.X, o.Max.X), Y: math.Max(b.Max.Y, o.Max.Y), Z: math.Max(b.Max.Z, o.Max.Z)},
	}
}

// Center returns the box's centroid.
func (b AABB) Center() Vec3 {
	return Vec3{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2, Z: (b.Min.Z + b.Max.Z) / 2}
}

// HitRange reports whether the ray intersects the box anywhere in
// (tMin, tMax), *including* when the origin is inside — the pruning test a
// BVH needs, as opposed to Intersect's shading semantics.
func (b AABB) HitRange(r Ray, tMin, tMax float64) bool {
	t0, t1 := tMin, tMax
	for axis := 0; axis < 3; axis++ {
		var o, d, lo, hi float64
		switch axis {
		case 0:
			o, d, lo, hi = r.O.X, r.D.X, b.Min.X, b.Max.X
		case 1:
			o, d, lo, hi = r.O.Y, r.D.Y, b.Min.Y, b.Max.Y
		default:
			o, d, lo, hi = r.O.Z, r.D.Z, b.Min.Z, b.Max.Z
		}
		if math.Abs(d) < 1e-12 {
			if o < lo || o > hi {
				return false
			}
			continue
		}
		inv := 1 / d
		near := (lo - o) * inv
		far := (hi - o) * inv
		if near > far {
			near, far = far, near
		}
		if near > t0 {
			t0 = near
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			return false
		}
	}
	return true
}

// Intersect returns the nearest intersection of r with the box at
// t ∈ (tMin, tMax), if any, using the slab method.
func (b AABB) Intersect(r Ray, tMin, tMax float64) Hit {
	t0, t1 := tMin, tMax
	// axis index of the entering face, used to compute the normal
	enterAxis := -1
	enterSign := 0.0
	for axis := 0; axis < 3; axis++ {
		var o, d, lo, hi float64
		switch axis {
		case 0:
			o, d, lo, hi = r.O.X, r.D.X, b.Min.X, b.Max.X
		case 1:
			o, d, lo, hi = r.O.Y, r.D.Y, b.Min.Y, b.Max.Y
		default:
			o, d, lo, hi = r.O.Z, r.D.Z, b.Min.Z, b.Max.Z
		}
		if math.Abs(d) < 1e-12 {
			if o < lo || o > hi {
				return Hit{}
			}
			continue
		}
		inv := 1 / d
		near := (lo - o) * inv
		far := (hi - o) * inv
		sign := -1.0
		if near > far {
			near, far = far, near
			sign = 1.0
		}
		if near > t0 {
			t0 = near
			enterAxis = axis
			enterSign = sign
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			return Hit{}
		}
	}
	if enterAxis < 0 || t0 <= tMin || t0 >= tMax {
		// Ray starts inside the box (or no entering face in range): the box
		// face exit point is not a surface we shade.
		return Hit{}
	}
	n := Vec3{}
	switch enterAxis {
	case 0:
		n.X = enterSign
	case 1:
		n.Y = enterSign
	default:
		n.Z = enterSign
	}
	return Hit{T: t0, Point: r.At(t0), Normal: n, OK: true}
}

// Triangle is a single-sided-shaded triangle with vertices A, B, C. The
// normal follows the right-hand rule over (B−A)×(C−A) and is flipped to
// face the ray origin when shading, so triangles are visible from both
// sides.
type Triangle struct {
	A, B, C Vec3
}

// Bounds returns the triangle's bounding box.
func (tr Triangle) Bounds() AABB {
	return AABB{
		Min: Vec3{
			X: math.Min(tr.A.X, math.Min(tr.B.X, tr.C.X)),
			Y: math.Min(tr.A.Y, math.Min(tr.B.Y, tr.C.Y)),
			Z: math.Min(tr.A.Z, math.Min(tr.B.Z, tr.C.Z)),
		},
		Max: Vec3{
			X: math.Max(tr.A.X, math.Max(tr.B.X, tr.C.X)),
			Y: math.Max(tr.A.Y, math.Max(tr.B.Y, tr.C.Y)),
			Z: math.Max(tr.A.Z, math.Max(tr.B.Z, tr.C.Z)),
		},
	}
}

// Intersect returns the intersection of r with the triangle at
// t ∈ (tMin, tMax) using the Möller–Trumbore algorithm.
func (tr Triangle) Intersect(r Ray, tMin, tMax float64) Hit {
	e1 := tr.B.Sub(tr.A)
	e2 := tr.C.Sub(tr.A)
	p := r.D.Cross(e2)
	det := e1.Dot(p)
	if math.Abs(det) < 1e-12 {
		return Hit{} // ray parallel to the triangle plane
	}
	inv := 1 / det
	s := r.O.Sub(tr.A)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		return Hit{}
	}
	q := s.Cross(e1)
	v := r.D.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return Hit{}
	}
	t := e2.Dot(q) * inv
	if t <= tMin || t >= tMax {
		return Hit{}
	}
	n := e1.Cross(e2).Normalize()
	if n.Dot(r.D) > 0 {
		n = n.Mul(-1) // face the viewer
	}
	return Hit{T: t, Point: r.At(t), Normal: n, OK: true}
}

// Plane is the horizontal plane y = Y with an upward normal; it serves as a
// ground plane for outdoor scenes.
type Plane struct {
	Y float64
}

// Intersect returns the intersection of r with the plane at
// t ∈ (tMin, tMax), if any.
func (p Plane) Intersect(r Ray, tMin, tMax float64) Hit {
	if math.Abs(r.D.Y) < 1e-12 {
		return Hit{}
	}
	t := (p.Y - r.O.Y) / r.D.Y
	if t <= tMin || t >= tMax {
		return Hit{}
	}
	n := Vec3{Y: 1}
	if r.D.Y > 0 {
		n.Y = -1
	}
	return Hit{T: t, Point: r.At(t), Normal: n, OK: true}
}

// Camera is a right-handed pinhole camera.
type Camera struct {
	Eye     Vec3
	forward Vec3
	right   Vec3
	up      Vec3
	// half-extents of the image plane at unit distance
	halfW, halfH float64
}

// NewCamera builds a camera at eye looking at target with the given vertical
// field of view (degrees) and aspect ratio (width/height).
func NewCamera(eye, target Vec3, vfovDeg, aspect float64) Camera {
	f := target.Sub(eye).Normalize()
	worldUp := Vec3{Y: 1}
	if math.Abs(f.Dot(worldUp)) > 0.999 {
		worldUp = Vec3{Z: 1}
	}
	r := f.Cross(worldUp).Normalize()
	u := r.Cross(f)
	hh := math.Tan(vfovDeg * math.Pi / 360)
	return Camera{
		Eye:     eye,
		forward: f,
		right:   r,
		up:      u,
		halfW:   hh * aspect,
		halfH:   hh,
	}
}

// RayThrough returns the primary ray through normalized device coordinates
// (u, v) ∈ [0, 1]², where (0, 0) is the top-left corner of the image.
func (c Camera) RayThrough(u, v float64) Ray {
	dx := (2*u - 1) * c.halfW
	dy := (1 - 2*v) * c.halfH
	dir := c.forward.Add(c.right.Mul(dx)).Add(c.up.Mul(dy)).Normalize()
	return Ray{O: c.Eye, D: dir}
}

// ColumnTerm and RowTerm split RayThrough's direction into the part that
// depends on u alone and the part that depends on v alone, so a renderer can
// compute each once per image column and row:
// RayThrough(u, v).D == ColumnTerm(u).Add(RowTerm(v)).Normalize(), operation
// for operation (TestRayTermsMatchRayThrough).
func (c Camera) ColumnTerm(u float64) Vec3 {
	dx := (2*u - 1) * c.halfW
	return c.forward.Add(c.right.Mul(dx))
}

// RowTerm is the v-dependent part of RayThrough's direction; see ColumnTerm.
func (c Camera) RowTerm(v float64) Vec3 {
	dy := (1 - 2*v) * c.halfH
	return c.up.Mul(dy)
}

// eyePlaneMargin is how far in front of the eye plane, relative to its
// distance from the eye, a box corner must lie before ProjectBounds trusts
// its projection: nearer than that, the rounding error of the view depth is
// no longer small against the depth it divides by.
const eyePlaneMargin = 1e-6

// ProjectBounds returns a half-open pixel rectangle [x0,x1)×[y0,y1) of a w×h
// image that contains every pixel whose primary ray (RayThrough at the pixel
// centre) can meet a point of b at a positive ray parameter; x0 == x1 means
// no pixel can. It is conservative, never tight: the eight corners are
// projected and their bounding rectangle widened by a pixel; a box with a
// corner on or behind the eye plane (or a corner, camera or projection that
// is not finite) takes the whole image, and only a box wholly behind the eye
// plane or wholly off the image is dropped.
func (c Camera) ProjectBounds(b AABB, w, h int) (x0, y0, x1, y1 int) {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := minX, maxX
	behind, whole := 0, false
	for i := 0; i < 8; i++ {
		p := b.Min
		if i&1 != 0 {
			p.X = b.Max.X
		}
		if i&2 != 0 {
			p.Y = b.Max.Y
		}
		if i&4 != 0 {
			p.Z = b.Max.Z
		}
		d := p.Sub(c.Eye)
		z := d.Dot(c.forward)
		lim := eyePlaneMargin * (math.Abs(d.X) + math.Abs(d.Y) + math.Abs(d.Z))
		if z < -lim {
			behind++
			continue
		}
		// The inverse of RayThrough: the continuous pixel coordinates whose
		// ray passes through p.
		px := (d.Dot(c.right)/z/c.halfW+1)*0.5*float64(w) - 0.5
		py := (1-d.Dot(c.up)/z/c.halfH)*0.5*float64(h) - 0.5
		if !(z > lim) || math.IsNaN(px) || math.IsNaN(py) {
			whole = true
			continue
		}
		minX, maxX = math.Min(minX, px), math.Max(maxX, px)
		minY, maxY = math.Min(minY, py), math.Max(maxY, py)
	}
	if behind == 8 {
		return 0, 0, 0, 0
	}
	if whole || behind > 0 {
		return 0, 0, w, h
	}
	x0, x1 = pixelSpan(minX, maxX, w)
	y0, y1 = pixelSpan(minY, maxY, h)
	if x0 >= x1 || y0 >= y1 {
		return 0, 0, 0, 0
	}
	return x0, y0, x1, y1
}

// pixelSpan returns the pixels of [0, n) within one pixel of [lo, hi], as a
// half-open range. The clamp is done in floating point: lo and hi may be
// infinite or far outside what an int holds.
func pixelSpan(lo, hi float64, n int) (int, int) {
	lo, hi = math.Ceil(lo-1), math.Floor(hi+1)+1
	lo, hi = math.Max(lo, 0), math.Min(hi, float64(n))
	if !(lo < hi) {
		return 0, 0
	}
	return int(lo), int(hi)
}

// Forward returns the camera's unit view direction. The renderer uses it to
// convert hit distances into view-space depth (distance along the view axis,
// not the ray), which is what a hardware Z-buffer stores.
func (c Camera) Forward() Vec3 { return c.forward }

// PixelScale returns the world-space size subtended by one pixel at unit
// view distance for an image of height h. Multiplying by the view depth of a
// surface point gives the texture footprint of a pixel there — the quantity
// mip selection is driven by.
func (c Camera) PixelScale(h int) float64 {
	if h <= 0 {
		return 0
	}
	return 2 * c.halfH / float64(h)
}

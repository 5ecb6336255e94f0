package render

import (
	"math"

	"gamestreamsr/internal/geom"
)

// The binned primary-ray path (DESIGN.md §19). buildPrims turns the frame's
// objects into a visit list — BVH leaf order, then unbounded shapes in scene
// order, then the ground: the order referenceShade meets them in — each with
// the pixel rectangle outside which no primary ray can reach it and the
// terms of its intersection test that depend on the eye alone. renderRows
// then tests, per pixel, only the listed objects whose rectangle holds the
// pixel, for t alone, and builds a point and a normal for the winner.
//
// Every floating-point operation below has the operands, and feeds the
// comparisons, that the geom.*.Intersect method it stands for has: hoisting
// moves an operation out of a loop, never regroups it. (Go fuses no
// multiply-adds on amd64; where a target does, this file and the reference
// are two compilations of the same expressions and the tests decide.)

type primKind uint8

const (
	kindOther primKind = iota // any Shape: tested through the interface
	kindSphere
	kindBox
	kindTriangle
	kindPlane
)

// prim is one entry of a frame's visit list.
type prim struct {
	kind primKind
	obj  *Object
	// The candidate rectangle, half-open; the whole image for shapes
	// without bounds.
	x0, x1, y0, y1 int
	// Eye-dependent terms of the t-only test, O being the eye:
	//
	//	sphere:   a = O−C, b = C, k = |a|²−R²
	//	box:      a = Min−O, b = Max−O, c = Min, d = Max
	//	triangle: a = e1, b = e2, c = O−A, d = c×e1, k = e2·d, n = unit e1×e2
	//	plane:    k = Y−O.y
	a, b, c, d, n geom.Vec3
	k             float64
}

// rowScratch is one worker's list of the prims whose rectangle covers the
// row it is rendering, and its texture-noise cache.
type rowScratch struct {
	active []*prim
	noise  noiseCache
}

// buildPrims fills fs.prims and fs.cols for the frame in fs.frame, after
// buildAccel.
func (fs *frameScratch) buildPrims() {
	f := &fs.frame
	fs.prims = fs.prims[:0]
	// bvh.build reorders items as it splits them and emits leaves left to
	// right, so items is in leaf order here: items[k].idx == tree.objIdx[k].
	for i := range fs.items {
		it := &fs.items[i]
		x0, y0, x1, y1 := f.cam.ProjectBounds(it.bounds, f.w, f.h)
		if x0 < x1 {
			fs.addPrim(&f.sc.Objects[it.idx], x0, y0, x1, y1)
		}
	}
	for _, i := range fs.unbounded {
		fs.addPrim(&f.sc.Objects[i], 0, 0, f.w, f.h)
	}
	if f.sc.Ground != nil {
		fs.addPrim(f.sc.Ground, 0, 0, f.w, f.h)
	}

	if cap(fs.cols) < f.w {
		fs.cols = make([]geom.Vec3, f.w)
	}
	fs.cols = fs.cols[:f.w]
	for x := range fs.cols {
		fs.cols[x] = f.cam.ColumnTerm((float64(x) + 0.5) / float64(f.w))
	}
}

func (fs *frameScratch) addPrim(o *Object, x0, y0, x1, y1 int) {
	eye := fs.frame.cam.Eye
	p := prim{obj: o, x0: x0, y0: y0, x1: x1, y1: y1}
	switch s := o.Shape.(type) {
	case geom.Sphere:
		p.kind = kindSphere
		p.a, p.b = eye.Sub(s.C), s.C
		p.k = p.a.Dot(p.a) - s.R*s.R
	case geom.AABB:
		p.kind = kindBox
		p.a, p.b, p.c, p.d = s.Min.Sub(eye), s.Max.Sub(eye), s.Min, s.Max
	case geom.Triangle:
		p.kind = kindTriangle
		p.a, p.b, p.c = s.B.Sub(s.A), s.C.Sub(s.A), eye.Sub(s.A)
		p.d = p.c.Cross(p.a)
		p.k = p.b.Dot(p.d)
		p.n = p.a.Cross(p.b).Normalize()
	case geom.Plane:
		p.kind = kindPlane
		p.k = s.Y - eye.Y
	}
	fs.prims = append(fs.prims, p)
}

// renderRows renders rows [y0, y1) of the frame in fs.frame.
func (fs *frameScratch) renderRows(y0, y1 int, rs *rowScratch) {
	f := &fs.frame
	eye, near := f.cam.Eye, f.near
	for y := y0; y < y1; y++ {
		active := rs.active[:0]
		for i := range fs.prims {
			if p := &fs.prims[i]; y >= p.y0 && y < p.y1 {
				active = append(active, p)
			}
		}
		rs.active = active

		rowTerm := f.cam.RowTerm((float64(y) + 0.5) / float64(f.h))
		ci, zi := y*f.color.Stride, y*f.depth.Stride
		// Per-pixel values that are read only after the same pixel wrote
		// them, so they need no clearing between pixels.
		var (
			face int       // of a winning box: axis<<1 | entered from the Max side
			hit  geom.Hit  // of a winning kindOther
			inv  geom.Vec3 // 1/d per axis, computed at the pixel's first box
		)
		for x, colTerm := range fs.cols {
			d := colTerm.Add(rowTerm).Normalize()

			bestT := f.far
			var best *prim
			haveInv := false
			for _, p := range active {
				if x < p.x0 || x >= p.x1 {
					continue
				}
				switch p.kind {
				case kindSphere:
					b := p.a.Dot(d)
					disc := b*b - p.k
					if disc < 0 {
						continue
					}
					sq := math.Sqrt(disc)
					t := -b - sq
					if !(t > near && t < bestT) {
						t = -b + sq
						if !(t > near && t < bestT) {
							continue
						}
					}
					bestT, best = t, p
				case kindBox:
					if !haveInv {
						inv, haveInv = geom.Vec3{X: 1 / d.X, Y: 1 / d.Y, Z: 1 / d.Z}, true
					}
					if t, fc, ok := p.boxEnter(eye, d, inv, near, bestT); ok {
						bestT, best, face = t, p, fc
					}
				case kindTriangle:
					pv := d.Cross(p.b)
					det := p.a.Dot(pv)
					if math.Abs(det) < 1e-12 {
						continue
					}
					invDet := 1 / det
					u := p.c.Dot(pv) * invDet
					if u < 0 || u > 1 {
						continue
					}
					v := d.Dot(p.d) * invDet
					if v < 0 || u+v > 1 {
						continue
					}
					t := p.k * invDet
					if t <= near || t >= bestT {
						continue
					}
					bestT, best = t, p
				case kindPlane:
					if math.Abs(d.Y) < 1e-12 {
						continue
					}
					t := p.k / d.Y
					if t <= near || t >= bestT {
						continue
					}
					bestT, best = t, p
				default:
					if h := p.obj.Shape.Intersect(geom.Ray{O: eye, D: d}, near, bestT); h.OK {
						bestT, best, hit = h.T, p, h
					}
				}
			}

			if best == nil {
				f.store(ci+x, zi+x, f.sky(d), f.far)
				continue
			}
			pt := eye.Add(d.Mul(bestT))
			var n geom.Vec3
			switch best.kind {
			case kindSphere:
				n = pt.Sub(best.b).Normalize()
			case kindBox:
				sign := -1.0
				if face&1 != 0 {
					sign = 1
				}
				switch face >> 1 {
				case 0:
					n.X = sign
				case 1:
					n.Y = sign
				default:
					n.Z = sign
				}
			case kindTriangle:
				n = best.n
				if n.Dot(d) > 0 {
					n = n.Mul(-1) // face the viewer
				}
			case kindPlane:
				n.Y = 1
				if d.Y > 0 {
					n.Y = -1
				}
			default:
				pt, n = hit.Point, hit.Normal
			}
			col, viewZ := f.surface(best.obj, pt, n, d, &rs.noise)
			f.store(ci+x, zi+x, col, viewZ)
		}
	}
}

// boxEnter is geom.AABB.Intersect's slab test for t alone: the parameter at
// which the ray from the eye along d enters the box within (tMin, tMax), and
// the face it enters through. inv is 1/d per axis (unused on an axis the ray
// is parallel to).
func (p *prim) boxEnter(eye, d, inv geom.Vec3, tMin, tMax float64) (t float64, face int, ok bool) {
	t0, t1 := tMin, tMax
	face = -1
	if math.Abs(d.X) < 1e-12 {
		if eye.X < p.c.X || eye.X > p.d.X {
			return 0, 0, false
		}
	} else {
		lo, hi, fc := p.a.X*inv.X, p.b.X*inv.X, 0
		if lo > hi {
			lo, hi, fc = hi, lo, 1
		}
		if lo > t0 {
			t0, face = lo, fc
		}
		if hi < t1 {
			t1 = hi
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	if math.Abs(d.Y) < 1e-12 {
		if eye.Y < p.c.Y || eye.Y > p.d.Y {
			return 0, 0, false
		}
	} else {
		lo, hi, fc := p.a.Y*inv.Y, p.b.Y*inv.Y, 2
		if lo > hi {
			lo, hi, fc = hi, lo, 3
		}
		if lo > t0 {
			t0, face = lo, fc
		}
		if hi < t1 {
			t1 = hi
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	if math.Abs(d.Z) < 1e-12 {
		if eye.Z < p.c.Z || eye.Z > p.d.Z {
			return 0, 0, false
		}
	} else {
		lo, hi, fc := p.a.Z*inv.Z, p.b.Z*inv.Z, 4
		if lo > hi {
			lo, hi, fc = hi, lo, 5
		}
		if lo > t0 {
			t0, face = lo, fc
		}
		if hi < t1 {
			t1 = hi
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	if face < 0 || t0 <= tMin || t0 >= tMax {
		// The eye is inside the box (or no entering face is in range): the
		// exit face is not a surface we shade.
		return 0, 0, false
	}
	return t0, face, true
}

// Package render is the server-side game-frame generator of the
// reproduction: a deterministic software raycast renderer that produces the
// two artifacts the GameStreamSR pipeline consumes — a color framebuffer and
// the depth buffer (Z-buffer) of the same resolution (paper §III-B, Fig. 4/5).
//
// The paper captures these from commercial games via ReShade; here the
// renderer hands them over natively. Scenes are built from spheres,
// axis-aligned boxes, triangles and a ground plane, shaded with Lambertian
// lighting and procedural value-noise textures whose high-frequency octaves
// attenuate with distance (the mipmapping/LOD analogue that motivates
// depth-guided RoI detection). Optional N×N supersampling (Renderer.SSAA)
// provides anti-aliased reference renders.
//
// Primary rays do not search for their objects. Once a frame, every bounded
// object's box is projected through the camera into a pixel rectangle
// (geom.Camera.ProjectBounds, conservative by construction); a row visits
// the objects whose rectangle covers it and a pixel tests those whose
// columns cover it, computing only the ray parameter t per candidate and
// the hit point and normal for the winner (raster.go, DESIGN.md §19). The
// visit order is the leaf order of a median-split BVH built per frame, then
// the unbounded shapes, then the ground — the order in which the per-pixel
// BVH walk this replaced met them, which is what decides between hits of
// equal t. That walk is kept, unexported, as the reference every frame of
// the fast path is tested against byte for byte (reference.go); nothing
// selects it outside the tests.
//
// All working state of a render — the BVH arrays, the candidate list, the
// per-column ray terms, the row workers' texture-noise caches (noise.go), the
// supersampled target — lives in the caller's Output and is reused from
// frame to frame, so a steady-state RenderInto allocates nothing and a
// Renderer stays stateless.
package render

import (
	"math"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/parallel"
)

// Material describes how an object is shaded.
type Material struct {
	// Base color in [0,1].
	Color geom.Vec3
	// TexScale is the spatial frequency of the procedural texture; 0
	// disables texturing.
	TexScale float64
	// TexAmp is the amplitude of the texture modulation in [0,1].
	TexAmp float64
	// Octaves of value noise (≥1 when TexScale > 0).
	Octaves int
	// Seed decorrelates textures between objects.
	Seed int64
}

// Object is anything the raycaster can hit.
type Object struct {
	Shape    Shape
	Mat      Material
	Emissive bool // emissive objects ignore lighting (sky billboards, lamps)
}

// Shape is the intersection interface implemented by geom primitives.
type Shape interface {
	Intersect(r geom.Ray, tMin, tMax float64) geom.Hit
}

// Scene is a renderable world.
type Scene struct {
	Objects []Object
	// Ground, if non-nil, is an infinite textured ground plane.
	Ground *Object
	// Light is the unit direction *toward* the light source.
	Light geom.Vec3
	// Ambient lighting floor in [0,1].
	Ambient float64
	// SkyTop and SkyBottom define the vertical sky gradient.
	SkyTop, SkyBottom geom.Vec3
	// Near and Far are the depth-buffer clip planes (view-space distances).
	Near, Far float64
	// LODBias scales the per-pixel texture band limit; 1 is the Nyquist
	// limit, larger values keep more detail (sharper, slightly aliased),
	// smaller values blur earlier. 0 defaults to 1.
	LODBias float64
}

// Output bundles the two render targets. An Output that is rendered into
// repeatedly (RenderInto) also carries the renderer's working state between
// frames; it must not be the target of two renders at once.
type Output struct {
	Color *frame.Image
	Depth *frame.DepthMap

	scratch *frameScratch
}

// ensure makes the output buffers w×h compact planes, reusing them when the
// geometry already matches and reallocating otherwise. Contents after a
// reuse are the previous frame's pixels; every render path fully overwrites.
func (out *Output) ensure(w, h int) {
	if out.Color == nil || out.Color.W != w || out.Color.H != h || out.Color.Stride != w {
		out.Color = frame.NewImagePacked(w, h)
	}
	if out.Depth == nil || out.Depth.W != w || out.Depth.H != h {
		out.Depth = frame.NewDepthMap(w, h)
	}
	if out.scratch == nil {
		out.scratch = newFrameScratch()
	}
}

// Renderer renders a Scene through a Camera. It holds no per-frame state, so
// one Renderer may serve several stages at once, each with its own Output.
type Renderer struct {
	// Sched attributes the render's row work to a scheduler client (nil
	// means the default client), so concurrent sessions share cores fairly
	// instead of oversubscribing them.
	Sched *parallel.Client
	// SSAA supersamples by N×N per output pixel (1 or 0 = off). Color is
	// box-filtered; depth keeps the per-tile minimum (nearest surviving
	// surface), matching how a resolved Z-buffer is consumed downstream.
	SSAA int

	// reference makes every pixel walk the BVH and go through
	// Shape.Intersect, serially per candidate as the renderer did before
	// the binned path: the form the fast path is tested against.
	reference bool
}

// Render rasterises the scene into a fresh w×h color frame and depth map.
func (rd *Renderer) Render(sc *Scene, cam geom.Camera, w, h int) Output {
	var out Output
	rd.RenderInto(&out, sc, cam, w, h)
	out.scratch = nil // the caller keeps two planes, not a renderer's workspace
	return out
}

// RenderInto rasterises the scene into out, reusing out's buffers when they
// already have the w×h geometry (and replacing them otherwise), so a stage
// that renders every frame can recycle one Output instead of allocating two
// full planes per frame — with SSAA, the supersampled planes too. The
// Renderer itself stays stateless and safe for concurrent use from multiple
// stages, each with its own Output.
func (rd *Renderer) RenderInto(out *Output, sc *Scene, cam geom.Camera, w, h int) {
	out.ensure(w, h)
	if n := rd.SSAA; n > 1 {
		hi := &out.scratch.hi
		hi.ensure(w*n, h*n)
		rd.renderDirect(hi, sc, cam)
		rd.Sched.For(h, func(y0, y1 int) { resolveRows(out, hi, n, y0, y1) })
		return
	}
	rd.renderDirect(out, sc, cam)
}

// frameScratch is the state one Output keeps between renders.
type frameScratch struct {
	// frame holds the running render's parameters for the row workers.
	frame frameParams

	// Acceleration state, rebuilt every frame in place.
	items     []buildItem
	tree      bvh
	unbounded []int

	// The binned path's visit list, per-column ray terms and per-worker row
	// lists and noise caches (raster.go). rowFn is renderRows bound once, so
	// dispatching a frame creates no closure.
	prims []prim
	cols  []geom.Vec3
	rows  *parallel.Scratch[*rowScratch]
	rowFn func(y0, y1 int, rs *rowScratch)

	// The N× target of a supersampled render.
	hi Output
}

func newFrameScratch() *frameScratch {
	fs := &frameScratch{rows: parallel.NewScratch(func() *rowScratch { return &rowScratch{} })}
	fs.rowFn = fs.renderRows
	return fs
}

// frameParams is what every row of one render reads.
type frameParams struct {
	sc    *Scene
	cam   geom.Camera
	fwd   geom.Vec3
	color *frame.Image
	depth *frame.DepthMap
	w, h  int
	// near and far are the scene's clip planes with their defaults applied;
	// pixScale is the world-space extent of one pixel at unit view depth,
	// times the scene's LOD bias.
	near, far, pixScale float64
}

// renderDirect rasterises without supersampling, writing every pixel of
// out's planes.
func (rd *Renderer) renderDirect(out *Output, sc *Scene, cam geom.Camera) {
	fs := out.scratch
	fs.begin(out, sc, cam)
	// Rows are disjoint and pixels are pure functions of (scene, camera, x,
	// y) — a worker's noise cache only saves recomputing them — so output is
	// identical however the row bands are dispatched.
	if rd.reference {
		rd.Sched.For(fs.frame.h, func(y0, y1 int) {
			for y := y0; y < y1; y++ {
				fs.referenceRow(y)
			}
		})
	} else {
		fs.buildPrims()
		parallel.ForWithOn(rd.Sched, fs.frame.h, fs.rows, fs.rowFn)
	}
	fs.frame = frameParams{} // pin neither the scene nor the planes
}

// begin sets up a render of sc through cam into out's planes: the frame's
// parameters and the acceleration state.
func (fs *frameScratch) begin(out *Output, sc *Scene, cam geom.Camera) {
	near, far := sc.Near, sc.Far
	if near <= 0 {
		near = 0.1
	}
	if far <= near {
		far = near + 1000
	}
	lodBias := sc.LODBias
	if lodBias <= 0 {
		lodBias = 1
	}
	w, h := out.Color.W, out.Color.H
	fs.frame = frameParams{
		sc: sc, cam: cam, fwd: cam.Forward(),
		color: out.Color, depth: out.Depth, w: w, h: h,
		near: near, far: far, pixScale: cam.PixelScale(h) * lodBias,
	}
	fs.buildAccel(sc)
}

// buildAccel partitions the scene's objects into the bounded ones, over
// which it rebuilds the BVH, and the rest.
func (fs *frameScratch) buildAccel(sc *Scene) {
	fs.items, fs.unbounded = fs.items[:0], fs.unbounded[:0]
	for i := range sc.Objects {
		if bd, ok := sc.Objects[i].Shape.(geom.Bounded); ok {
			bounds := bd.Bounds()
			fs.items = append(fs.items, buildItem{idx: i, bounds: bounds, center: bounds.Center()})
		} else {
			fs.unbounded = append(fs.unbounded, i)
		}
	}
	fs.tree.rebuild(fs.items)
}

// resolveRows box-filters color and min-reduces depth from the N× render hi
// into rows [y0, y1) of out.
func resolveRows(out, hi *Output, n, y0, y1 int) {
	n2 := n * n
	hc, hd := hi.Color, hi.Depth
	w := out.Color.W
	for y := y0; y < y1; y++ {
		o := y * out.Color.Stride
		dstR, dstG, dstB := out.Color.R[o:o+w], out.Color.G[o:o+w], out.Color.B[o:o+w]
		dstZ := out.Depth.Z[y*out.Depth.Stride:][:w]
		for x := range dstR {
			var r, g, b int
			minZ := float32(1)
			for dy := 0; dy < n; dy++ {
				ho := (y*n+dy)*hc.Stride + x*n
				srcR, srcG, srcB := hc.R[ho:ho+n], hc.G[ho:ho+n], hc.B[ho:ho+n]
				srcZ := hd.Z[(y*n+dy)*hd.Stride+x*n:][:n]
				for dx := range srcR {
					r += int(srcR[dx])
					g += int(srcG[dx])
					b += int(srcB[dx])
					if z := srcZ[dx]; z < minZ {
						minZ = z
					}
				}
			}
			dstR[x], dstG[x], dstB[x] = uint8((r+n2/2)/n2), uint8((g+n2/2)/n2), uint8((b+n2/2)/n2)
			dstZ[x] = minZ
		}
	}
}

// surface shades the point p of obj, whose unit normal there is n, as seen
// along the unit direction d from the eye, sampling its texture through nc:
// the color (components in [0,1]) and the view-space depth.
func (f *frameParams) surface(obj *Object, p, n, d geom.Vec3, nc *noiseCache) (geom.Vec3, float64) {
	sc := f.sc
	viewZ := p.Sub(f.cam.Eye).Dot(f.fwd)
	if viewZ < f.near {
		viewZ = f.near
	}
	col := obj.Mat.Color
	if obj.Mat.TexScale > 0 && obj.Mat.TexAmp > 0 {
		// Project onto the dominant plane of the surface normal so textures
		// do not smear along the projection axis.
		var tu, tv float64
		ax, ay, az := math.Abs(n.X), math.Abs(n.Y), math.Abs(n.Z)
		switch {
		case ay >= ax && ay >= az:
			tu, tv = p.X, p.Z
		case ax >= az:
			tu, tv = p.Y, p.Z
		default:
			tu, tv = p.X, p.Y
		}
		oct := obj.Mat.Octaves
		if oct < 1 {
			oct = 1
		}
		// Mip selection: band-limit the texture to the Nyquist frequency of
		// this pixel's footprint on the surface. Grazing incidence stretches
		// the footprint, so divide by the cosine (bounded away from zero).
		cosI := math.Abs(n.Dot(d))
		if cosI < 0.02 {
			cosI = 0.02
		}
		footprint := viewZ * f.pixScale / cosI * obj.Mat.TexScale
		maxFreq := math.Inf(1)
		if footprint > 0 {
			maxFreq = 1 / (2 * footprint)
		}
		tex := nc.fbm(tu*obj.Mat.TexScale, tv*obj.Mat.TexScale, oct, obj.Mat.Seed, maxFreq)
		m := 1 - obj.Mat.TexAmp/2 + obj.Mat.TexAmp*tex
		col = geom.Vec3{X: col.X * m, Y: col.Y * m, Z: col.Z * m}
	}
	if !obj.Emissive {
		diff := n.Dot(sc.Light)
		if diff < 0 {
			diff = 0
		}
		l := sc.Ambient + (1-sc.Ambient)*diff
		col = col.Mul(l)
	}
	return col, viewZ
}

// sky is the color of a ray that escapes along d: a vertical gradient keyed
// off the ray's vertical component.
func (f *frameParams) sky(d geom.Vec3) geom.Vec3 {
	return f.sc.SkyBottom.Lerp(f.sc.SkyTop, 0.5*(d.Y+1))
}

// store writes one shaded pixel at plane offsets ci (color) and zi (depth).
func (f *frameParams) store(ci, zi int, col geom.Vec3, viewZ float64) {
	f.color.R[ci], f.color.G[ci], f.color.B[ci] = toByte(col.X), toByte(col.Y), toByte(col.Z)
	f.depth.Z[zi] = normDepth(viewZ, f.near, f.far)
}

// normDepth maps a view-space distance onto the [0,1] depth-buffer range.
func normDepth(z, near, far float64) float32 {
	d := (z - near) / (far - near)
	if d < 0 {
		d = 0
	} else if d > 1 {
		d = 1
	}
	return float32(d)
}

func toByte(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

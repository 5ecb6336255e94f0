package render

import "gamestreamsr/internal/geom"

// The reference form of the primary-ray path: every pixel builds its ray
// with Camera.RayThrough, walks the BVH, and asks each candidate for a full
// geom.Hit through Shape.Intersect — the search as it was before raster.go;
// what is done with the winner (surface, sky, store) is shared with it, but
// each pixel gets a fresh noise cache, so every texture sample is hashed
// afresh. It is slow and it is the definition: the tests hold every frame of
// the binned path to it byte for byte, colour and depth, and no flag, option
// or environment variable reaches it (Renderer.reference is set by tests
// only).

// referenceRow renders row y of the running frame.
func (fs *frameScratch) referenceRow(y int) {
	f := &fs.frame
	v := (float64(y) + 0.5) / float64(f.h)
	for x := 0; x < f.w; x++ {
		u := (float64(x) + 0.5) / float64(f.w)
		var nc noiseCache // misses on every octave
		col, viewZ := fs.referenceShade(f.cam.RayThrough(u, v), &nc)
		f.store(y*f.color.Stride+x, y*f.depth.Stride+x, col, viewZ)
	}
}

// referenceShade traces the primary ray and returns the shaded color
// (components in [0,1]) plus the view-space depth of the hit (far when the
// ray escapes), sampling textures through nc.
func (fs *frameScratch) referenceShade(ray geom.Ray, nc *noiseCache) (geom.Vec3, float64) {
	f := &fs.frame
	sc, near, far := f.sc, f.near, f.far
	best := geom.Hit{T: far}
	bestObj := -2 // -2 none, -1 ground, ≥0 object index
	best, bestObj = fs.tree.nearest(sc.Objects, ray, near, best, bestObj)
	for _, i := range fs.unbounded {
		if h := sc.Objects[i].Shape.Intersect(ray, near, best.T); h.OK {
			best = h
			bestObj = i
		}
	}
	if sc.Ground != nil {
		if h := sc.Ground.Shape.Intersect(ray, near, best.T); h.OK {
			best = h
			bestObj = -1
		}
	}
	if bestObj == -2 {
		return f.sky(ray.D), far
	}
	obj := sc.Ground
	if bestObj >= 0 {
		obj = &sc.Objects[bestObj]
	}
	return f.surface(obj, best.Point, best.Normal, ray.D, nc)
}

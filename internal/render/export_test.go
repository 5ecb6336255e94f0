package render

import "gamestreamsr/internal/geom"

// Reference returns a Renderer like rd that takes the reference path: what
// the tests in package render_test (which may import internal/games, as this
// package's own tests may not) compare the shipped path against.
func Reference(rd Renderer) *Renderer {
	rd.reference = true
	return &rd
}

// NoiseSlots is the number of octave slots in a noise cache.
const NoiseSlots = noiseSlots

// NoiseCacheShare walks a w×h render of sc through cam row by row, as one
// row worker with one noise cache would, and counts per octave slot the
// value-noise samples the frame takes and how many of them the cache served.
// A sample is a slot a fresh cache fills for the pixel; it is served when the
// warm cache's slot is unchanged by the same pixel (a miss refills it with
// another cell).
func NoiseCacheShare(sc *Scene, cam geom.Camera, w, h int) (served, samples [NoiseSlots]int) {
	var out Output
	out.ensure(w, h)
	fs := out.scratch
	fs.begin(&out, sc, cam)
	var warm noiseCache
	for y := 0; y < h; y++ {
		v := (float64(y) + 0.5) / float64(h)
		for x := 0; x < w; x++ {
			ray := cam.RayThrough((float64(x)+0.5)/float64(w), v)
			var cold noiseCache
			fs.referenceShade(ray, &cold)
			before := warm
			fs.referenceShade(ray, &warm)
			for o := range cold {
				if cold[o].filled {
					samples[o]++
					if warm[o] == before[o] {
						served[o]++
					}
				}
			}
		}
	}
	return served, samples
}

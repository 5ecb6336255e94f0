package render

import "math"

// Value-noise texture synthesis. The renderer needs deterministic
// high-frequency surface detail so that (a) super-resolution quality
// comparisons are measured on content that actually loses information under
// bilinear interpolation and (b) the mipmapping/LOD analogue has octaves to
// attenuate with distance. A hash-based value noise with smooth interpolation
// gives both without any asset files.

// hash2 maps an integer lattice point (and a per-texture seed) to [0, 1).
func hash2(x, y, seed int64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return float64(h&0xFFFFFFFF) / float64(1<<32)
}

// smooth is the quintic fade used by Perlin-style noise.
func smooth(t float64) float64 { return t * t * t * (t*(t*6-15) + 10) }

// noiseCache memoises value noise's lattice hashes: slot o%noiseSlots holds
// the four corner hashes of the cell octave o sampled last. An octave that
// survives the band limit has a cell at least two pixels wide (four at full
// weight), so consecutive pixels of a surface mostly sample the cell their
// neighbour hashed: nine samples in ten on G3 and G10 (DESIGN.md §26). hash2
// is a pure function of the cell and the octave's seed, so a hit returns the
// bits a recomputation would, whichever object, row or frame filled the slot;
// the cache needs no reset, and each row worker keeps one in its scratch.
type noiseCache [noiseSlots]noiseCell

const noiseSlots = 16

type noiseCell struct {
	seed, ix, iy int64
	// filled tells a slot that holds hashes from a zero one: (0, 0) with
	// seed 0 is a cell like any other.
	filled             bool
	h00, h10, h01, h11 float64
}

// fbm sums octaves of value noise with persistence 0.5, band-limited to
// maxFreq (in texture-space cycles per unit). Octaves whose frequency
// approaches maxFreq fade out linearly and octaves beyond it are dropped —
// exactly what mip selection does in a hardware texture unit. This realises
// the paper's §III-B observation that far objects are rendered with fewer
// graphics details: the pixel footprint of distant surfaces is large, so
// their texture is band-limited to low frequencies and the recoverable
// high-frequency energy concentrates on nearby (foreground) geometry.
//
// The result is bit for bit that of the uncached kernel in noise_test.go:
// the same operations on the same operands in the same order, less two that
// cannot change a bit — the blend of a full-weight octave (1·v + 0·0.5 is v,
// as v is never −0) and the weights of the octaves after the first cut one
// (freq only grows, so they are cut too).
func (c *noiseCache) fbm(x, y float64, octaves int, seed int64, maxFreq float64) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	freq := 1.0
	o := 0
	for ; o < octaves; o++ {
		w := octaveWeight(freq, maxFreq)
		if !(w > 0) {
			break
		}
		px, py := x*freq, y*freq
		x0 := math.Floor(px)
		y0 := math.Floor(py)
		fx := smooth(px - x0)
		fy := smooth(py - y0)
		ix, iy, s := int64(x0), int64(y0), seed+int64(o)*1013
		cell := &c[o%noiseSlots]
		if !cell.filled || cell.ix != ix || cell.iy != iy || cell.seed != s {
			cell.fill(ix, iy, s)
		}
		top := cell.h00 + (cell.h10-cell.h00)*fx
		bot := cell.h01 + (cell.h11-cell.h01)*fx
		v := top + (bot-top)*fy
		if w != 1 {
			v = w*v + (1-w)*0.5
		}
		sum += amp * v
		norm += amp
		amp *= 0.5
		freq *= 2.1
	}
	// A fully attenuated octave contributes its mean (0.5) rather than
	// vanishing, so band-limiting never shifts overall brightness — exactly
	// like sampling a coarser mip level.
	for ; o < octaves; o++ {
		sum += amp * 0.5
		norm += amp
		amp *= 0.5
	}
	return sum / norm
}

// fill hashes the four corners of lattice cell (ix, iy) for seed.
func (cell *noiseCell) fill(ix, iy, seed int64) {
	*cell = noiseCell{
		seed: seed, ix: ix, iy: iy, filled: true,
		h00: hash2(ix, iy, seed),
		h10: hash2(ix+1, iy, seed),
		h01: hash2(ix, iy+1, seed),
		h11: hash2(ix+1, iy+1, seed),
	}
}

// octaveWeight fades an octave of frequency f as it approaches the band
// limit: full weight below maxFreq/2, zero at or above maxFreq.
func octaveWeight(f, maxFreq float64) float64 {
	if maxFreq <= 0 {
		return 0
	}
	half := maxFreq / 2
	switch {
	case f <= half:
		return 1
	case f >= maxFreq:
		return 0
	default:
		return (maxFreq - f) / half
	}
}

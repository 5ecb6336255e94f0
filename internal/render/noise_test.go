package render

import (
	"math"
	"testing"
)

// The value-noise kernel as it was before noiseCache: every octave hashes
// its four lattice corners at every sample. It is the definition the cached
// kernel is held to, bit for bit (FuzzFBM, and through referenceShade's
// always-missing cache, every frame of TestRenderMatchesReference).

// valueNoise samples smooth value noise at (x, y) for the given seed.
// The result is in [0, 1).
func valueNoise(x, y float64, seed int64) float64 {
	x0 := math.Floor(x)
	y0 := math.Floor(y)
	fx := smooth(x - x0)
	fy := smooth(y - y0)
	ix, iy := int64(x0), int64(y0)
	v00 := hash2(ix, iy, seed)
	v10 := hash2(ix+1, iy, seed)
	v01 := hash2(ix, iy+1, seed)
	v11 := hash2(ix+1, iy+1, seed)
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// fbm sums octaves of value noise with persistence 0.5, band-limited to
// maxFreq (in texture-space cycles per unit). Octaves whose frequency
// approaches maxFreq fade out linearly and octaves beyond it are dropped —
// exactly what mip selection does in a hardware texture unit. This realises
// the paper's §III-B observation that far objects are rendered with fewer
// graphics details: the pixel footprint of distant surfaces is large, so
// their texture is band-limited to low frequencies and the recoverable
// high-frequency energy concentrates on nearby (foreground) geometry.
func fbm(x, y float64, octaves int, seed int64, maxFreq float64) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	freq := 1.0
	for o := 0; o < octaves; o++ {
		w := octaveWeight(freq, maxFreq)
		// A fully attenuated octave contributes its mean (0.5) rather than
		// vanishing, so band-limiting never shifts overall brightness —
		// exactly like sampling a coarser mip level.
		v := 0.5
		if w > 0 {
			v = w*valueNoise(x*freq, y*freq, seed+int64(o)*1013) + (1-w)*0.5
		}
		sum += amp * v
		norm += amp
		amp *= 0.5
		freq *= 2.1
	}
	return sum / norm
}

// Steps of the fuzzer's walk: none, within a cell, across one, across
// several, in both directions (octave o multiplies them by 2.1^o).
var walkSteps = [...]float64{0, 1e-3, -1e-3, 0.1, -0.1, 0.37, -0.37, 1, -1, 3.5, -3.5}

// Coordinates the walk can jump to: the origin cell, zeros of both signs,
// the lattice's far ends and values no cell holds.
var walkJumps = [...]float64{0, math.Copysign(0, -1), 0.5, -0.5, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 1 << 62, -1 << 62}

// Band limits the walk can use besides a finite one: none, everything cut,
// nonsense.
var walkLimits = [...]float64{math.Inf(1), 0, -1, math.NaN()}

// FuzzFBM feeds one noise cache a sequence of samples — a random walk in
// (x, y) with steps inside and across lattice cells, jumps to special
// coordinates, one of two seeds per sample, 1–12 octaves and band limits
// from none to all — and holds every result to the uncached kernel with
// math.Float64bits. The cache is state, so the sequence is the input: a hit
// must return what a miss would have computed, whatever was sampled before.
// Four bytes make one sample: op (seed, jump), step, octaves, band limit.
func FuzzFBM(f *testing.F) {
	// The origin cell with seed 0 first, into an empty cache: a zero slot
	// must not pass for (0, 0, seed 0)'s hashes.
	f.Add(0.25, 0.25, int64(0), int64(0), []byte{0, 0, 0, 0, 0, 1, 0, 0})
	f.Add(0.5, 0.5, int64(0), int64(9), []byte{0, 1, 4, 0, 1, 1, 4, 0, 0, 2, 4, 0, 1, 7, 11, 0})
	f.Add(3.7, -2.2, int64(3), int64(3+1013), []byte{0, 5, 11, 8, 1, 6, 11, 8, 0, 9, 3, 200, 1, 10, 2, 1})
	f.Add(-0.3, 7.9, int64(-5), int64(1<<40), []byte{0x10, 3, 5, 2, 0x21, 3, 5, 3, 0x32, 8, 5, 64, 0x43, 7, 6, 255})
	f.Add(1e300, math.NaN(), int64(1), int64(2), []byte{0x80, 0, 11, 0, 0x90, 0, 11, 1, 0xa0, 0, 11, 2, 0xb1, 1, 11, 3})
	f.Fuzz(func(t *testing.T, x, y float64, seedA, seedB int64, walk []byte) {
		var c noiseCache
		for i := 0; i+4 <= len(walk) && i < 4*512; i += 4 {
			op, step, oct, lim := walk[i], walk[i+1], walk[i+2], walk[i+3]
			seed := seedA
			if op&1 != 0 {
				seed = seedB
			}
			if j := int(op >> 4); j < len(walkJumps) {
				if op&2 != 0 {
					y = walkJumps[j]
				} else {
					x = walkJumps[j]
				}
			}
			s := walkSteps[int(step)%len(walkSteps)]
			if step&0x80 != 0 {
				y += s
			} else {
				x += s
			}
			octaves := 1 + int(oct)%12
			maxFreq := float64(lim) / 4
			if lim < 4 {
				maxFreq = walkLimits[lim]
			}
			got, want := c.fbm(x, y, octaves, seed, maxFreq), fbm(x, y, octaves, seed, maxFreq)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %d: fbm(%v, %v, %d, %d, %v) = %v (%#x) through the cache, %v (%#x) without",
					i/4, x, y, octaves, seed, maxFreq, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

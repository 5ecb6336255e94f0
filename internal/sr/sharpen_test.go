package sr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/upscale"
)

// sharpenInto runs the shipped kernel from up into dst.
func sharpenInto(dst, up *frame.Image, alpha float64) {
	s := &sharpenRun{up: *up}
	s.fn = s.bands
	s.sharpen(dst, alpha)
}

// sharpenInPlace is the definition sharpenInto is held to: the nine-sample
// loop Fast ran until the separable kernel replaced it, kept as it was.
func sharpenInPlace(im *frame.Image, alpha float64, pool *bufpool.Pool) {
	for _, plane := range [][]uint8{im.R, im.G, im.B} {
		sharpenPlane(plane, im.W, im.H, im.Stride, alpha, pool)
	}
}

func sharpenPlane(p []uint8, w, h, stride int, alpha float64, pool *bufpool.Pool) {
	src := pool.Bytes(len(p))
	defer pool.PutBytes(src)
	copy(src, p)
	at := func(x, y int) int {
		if x < 0 {
			x = 0
		} else if x >= w {
			x = w - 1
		}
		if y < 0 {
			y = 0
		} else if y >= h {
			y = h - 1
		}
		return int(src[y*stride+x])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := at(x, y)
			// 3×3 binomial blur (1 2 1 / 2 4 2 / 1 2 1)/16 and local extrema.
			lo, hi := c, c
			blur := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					v := at(x+dx, y+dy)
					wgt := (2 - absInt(dx)) * (2 - absInt(dy))
					blur += wgt * v
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			out := float64(c) + alpha*(float64(c)-float64(blur)/16)
			if out < float64(lo) {
				out = float64(lo)
			} else if out > float64(hi) {
				out = float64(hi)
			}
			p[y*stride+x] = uint8(clampF(out, 0, 255) + 0.5)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TestByteLaneMinMax checks the word-parallel byte comparisons on every pair
// of byte values, each in every lane beside unrelated neighbours.
func TestByteLaneMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			wa, wb := rng.Uint64(), rng.Uint64()
			lane := uint((a + b) % 8 * 8)
			wa = wa&^(0xFF<<lane) | uint64(a)<<lane
			wb = wb&^(0xFF<<lane) | uint64(b)<<lane
			ge, mn, mx := geMask8(wa, wb), min8(wa, wb), max8(wa, wb)
			for l := uint(0); l < 64; l += 8 {
				x, y := uint8(wa>>l), uint8(wb>>l)
				wantGE := uint8(0)
				if x >= y {
					wantGE = 0xFF
				}
				if uint8(ge>>l) != wantGE || uint8(mn>>l) != min(x, y) || uint8(mx>>l) != max(x, y) {
					t.Fatalf("lane %d of %#016x, %#016x: ge %#x min %d max %d for bytes %d, %d", l/8, wa, wb, uint8(ge>>l), uint8(mn>>l), uint8(mx>>l), x, y)
				}
			}
		}
	}
}

// planeFills are the contents the differential runs over: noise (every
// min/max branch), two-valued planes (the clamp always binds, blur hits both
// ends of its range) and a near-flat plane (out lands between lo and hi one
// level apart, where the rounding decides).
var planeFills = map[string]func(rng *rand.Rand) uint8{
	"random":    func(rng *rand.Rand) uint8 { return uint8(rng.Intn(256)) },
	"binary":    func(rng *rand.Rand) uint8 { return uint8(rng.Intn(2) * 255) },
	"near-flat": func(rng *rand.Rand) uint8 { return uint8(127 + rng.Intn(3)) },
}

func filledImage(w, h int, seed int64, fill func(rng *rand.Rand) uint8) *frame.Image {
	rng := rand.New(rand.NewSource(seed))
	im := frame.NewImage(w, h)
	for _, p := range [][]uint8{im.R, im.G, im.B} {
		for i := range p {
			p[i] = fill(rng)
		}
	}
	return im
}

// TestSharpenIntoMatchesReference holds the separable, banded kernel to the
// nine-sample loop byte for byte: every fill and gain over geometries of one
// column, one row, fewer rows than a band, a band boundary on the last row
// and several bands, through packed images and through strided views of
// both the source and the destination (whose bytes outside the view must
// stay as they were). Run under -race -cpu 1,2 it is also the seam test: at
// GOMAXPROCS 2 the bands of one image run on two workers.
func TestSharpenIntoMatchesReference(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3}, {7, 5}, {31, 17}, {16, 16}, {5, 33}, {40, 2*sharpenBand + 1}, {128, 128}}
	for name, fill := range planeFills {
		for _, alpha := range []float64{2, 0.7, 5.3, -1.5, 1e300, math.Inf(1)} {
			for gi, g := range geoms {
				w, h := g[0], g[1]
				what := fmt.Sprintf("%s α=%v %dx%d", name, alpha, w, h)
				up := filledImage(w, h, int64(gi+1), fill)
				want := up.Clone()
				sharpenInPlace(want, alpha, nil)

				got := randImage(w, h, 99) // dirty
				sharpenInto(got, up, alpha)
				if !got.Equal(want) {
					t.Fatalf("%s: packed result differs from the reference loop", what)
				}

				// The same source and destination as views into wider images.
				upParent := randImage(w+5, h+4, 7)
				upView := upParent.MustSubImage(2, 1, w, h)
				upView.CopyFrom(up)
				dstParent := randImage(w+3, h+2, 8)
				frameOf := dstParent.Clone()
				sharpenInto(dstParent.MustSubImage(3, 2, w, h), upView, alpha)
				if !dstParent.MustSubImage(3, 2, w, h).Equal(want) {
					t.Fatalf("%s: strided result differs from the reference loop", what)
				}
				frameOf.MustSubImage(3, 2, w, h).CopyFrom(want)
				if !dstParent.Equal(frameOf) {
					t.Fatalf("%s: bytes outside the destination view were written", what)
				}
			}
		}
	}
}

// TestFastMatchesResampleThenReference is the same differential one level
// up: Fast on a rendered crop, a strided RoI view as the client passes it,
// equals the resample followed by the reference loop — for the allocating
// form and for the pooled one into a dirty destination (poisoned under
// -race and -tags bufpool_debug).
func TestFastMatchesResampleThenReference(t *testing.T) {
	wl := gamePatch(t, "G3", 20, 96, 54)
	for _, alpha := range []float64{2, 0.7, 5.3} {
		f := NewFast(FastConfig{Sharpen: alpha})
		for _, view := range []*frame.Image{wl, wl.MustSubImage(17, 9, 64, 40), wl.MustSubImage(0, 0, 33, 1), wl.MustSubImage(95, 3, 1, 50)} {
			want := upscale.MustResize(view, 2*view.W, 2*view.H, upscale.Lanczos3)
			sharpenInPlace(want, alpha, nil)
			got, err := f.Upscale(view, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("α=%v %dx%d: Fast.Upscale differs from resample + reference sharpen", alpha, view.W, view.H)
			}
			pool := bufpool.New()
			for run := 0; run < 3; run++ {
				dst := pool.Image(2*view.W, 2*view.H)
				if err := f.UpscaleInto(dst, view, 2, pool); err != nil {
					t.Fatal(err)
				}
				if !dst.Equal(want) {
					t.Fatalf("α=%v %dx%d run %d: pooled UpscaleInto differs from Upscale", alpha, view.W, view.H, run)
				}
				pool.PutImage(dst)
			}
		}
	}
}

// TestFastUpscaleIntoSteadyStateAllocs is the allocation gate of the live
// client's RoI call: pooled, warm, a 64×64 patch costs what its resample
// costs and nothing more — the rolling rows are the workers' and the
// submission's body is recycled — and at ×2 that is nothing at all.
func TestFastUpscaleIntoSteadyStateAllocs(t *testing.T) {
	im := gamePatch(t, "G3", 20, 64, 64)
	pool := bufpool.New()
	dst := frame.NewImagePacked(128, 128)
	f := NewFast(FastConfig{})
	allocsOf := func(run func() error) float64 {
		t.Helper()
		if err := run(); err != nil { // warm the pool, the weights cache and the scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	resample := allocsOf(func() error { return upscale.ResizeInto(dst, im, upscale.Lanczos3, pool) })
	whole := allocsOf(func() error { return f.UpscaleInto(dst, im, 2, pool) })
	t.Logf("pooled 64x64: resample %.1f allocs/run, Fast.UpscaleInto %.1f", resample, whole)
	if whole > resample {
		t.Errorf("Fast.UpscaleInto allocates %.1f objects/run, its resample alone %.1f: the sharpen pass may add none", whole, resample)
	}
	// At ×2 the resample is the fused pass's: one recycled submission, rows
	// in the workers' scratch, nothing from the pool.
	if whole != 0 {
		t.Errorf("Fast.UpscaleInto at ×2 allocates %.1f objects/run, want 0", whole)
	}
}

// BenchmarkFastSRRoI64 is the live client's RoI call: a 64×64 crop of a
// rendered frame (noise is the worst case for the min/max reductions and
// not the traffic), pooled, into a kept destination. Run with -cpu 1,2.
func BenchmarkFastSRRoI64(b *testing.B) {
	lr := gamePatch(b, "G3", 20, 160, 90)
	im := lr.MustSubImage(48, 13, 64, 64) // a strided view, as the client's is
	pool := bufpool.New()
	dst := pool.Image(128, 128)
	f := NewFast(FastConfig{})
	if err := f.UpscaleInto(dst, im, 2, pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.UpscaleInto(dst, im, 2, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFastConcurrentCalls: one engine called from several goroutines — the
// runs and the workers' rows are recycled across them — gives every caller
// the serial result, under the race detector.
func TestFastConcurrentCalls(t *testing.T) {
	f := NewFast(FastConfig{})
	ims := []*frame.Image{gamePatch(t, "G3", 20, 64, 64), gamePatch(t, "G5", 8, 40, 23)}
	var wants []*frame.Image
	for _, im := range ims {
		want, err := f.Upscale(im, 2)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want)
	}
	pool := bufpool.New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(ims)
				dst := pool.Image(wants[k].W, wants[k].H)
				if err := f.UpscaleInto(dst, ims[k], 2, pool); err != nil || !dst.Equal(wants[k]) {
					t.Errorf("goroutine %d call %d: error %v, or a result that is not the serial one", g, i, err)
					return
				}
				pool.PutImage(dst)
			}
		}(g)
	}
	wg.Wait()
}

// TestSharpen8xMatchesSharpen8 holds the output expression's vector form
// (where the GOARCH has one) to sharpen8 byte for byte on random lanes —
// blur sums over their whole 0 … 16·255 range, lo and hi in either order —
// at every gain the differential runs and at ones that make the sum NaN or
// infinite, with the eight destination bytes between sentinels that must
// survive (the race detector does not see inside assembly).
func TestSharpen8xMatchesSharpen8(t *testing.T) {
	if !haveSharpenBulk {
		t.Skip("no vector form on this GOARCH")
	}
	rng := rand.New(rand.NewSource(52))
	blurWord := func() uint64 {
		var w uint64
		for l := 0; l < 4; l++ {
			w |= uint64(rng.Intn(16*255+1)) << (16 * l)
		}
		return w
	}
	var src, want [8]uint8
	got := make([]uint8, 24)
	for _, alpha := range []float64{2, 0.7, 5.3, -1.5, 0, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		for i := 0; i < 20000; i++ {
			even, odd, los, his := blurWord(), blurWord(), rng.Uint64(), rng.Uint64()
			for j := range src {
				src[j] = uint8(rng.Intn(256))
			}
			if i%4 == 0 { // flat: v − blur/16 is zero, and an infinite gain makes it NaN
				v := uint8(i / 4)
				for j := range src {
					src[j] = v
				}
				even = 16 * uint64(v) * 0x0001000100010001
				odd = even
			}
			sharpen8(want[:], src[:], even, odd, los, his, alpha)
			for j := range got {
				got[j] = 0xC5
			}
			sharpen8x(&got[8], &src[0], even, odd, los, his, alpha)
			for j, v := range got {
				w := uint8(0xC5)
				if j >= 8 && j < 16 {
					w = want[j-8]
				}
				if v != w {
					t.Fatalf("α=%v even %#x odd %#x lo %#x hi %#x src %v: byte %d = %d, want %d", alpha, even, odd, los, his, src, j-8, v, w)
				}
			}
		}
	}
}

// checkFused holds Fast's fused ×2 pass on im to the resample followed by
// the reference loop: into a dirty packed destination, and into a strided
// view of a dirty canvas whose bytes outside the view must stay as they
// were.
func checkFused(t *testing.T, im *frame.Image, alpha float64) {
	t.Helper()
	want := upscale.MustResize(im, 2*im.W, 2*im.H, upscale.Lanczos3)
	sharpenInPlace(want, alpha, nil)
	f := NewFast(FastConfig{Sharpen: alpha})
	got := randImage(2*im.W, 2*im.H, 98)
	if err := f.UpscaleInto(got, im, 2, nil); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("α=%v %dx%d (stride %d): fused pass differs from resample + reference sharpen", alpha, im.W, im.H, im.Stride)
	}
	canvas := randImage(2*im.W+3, 2*im.H+2, 97)
	outside := canvas.Clone()
	if err := f.UpscaleInto(canvas.MustSubImage(3, 1, 2*im.W, 2*im.H), im, 2, nil); err != nil {
		t.Fatal(err)
	}
	outside.MustSubImage(3, 1, 2*im.W, 2*im.H).CopyFrom(want)
	if !canvas.Equal(outside) {
		t.Fatalf("α=%v %dx%d: strided destination differs, or bytes outside it were written", alpha, im.W, im.H)
	}
}

// TestFastFusedMatchesResampleThenReference is the fused pass's own
// differential, on noise and the other fills: one pixel, one column, one
// row, 2×2, sources without a Lanczos interior, an output that ends on a
// band, outputs whose last band holds two rows, several bands, and
// sources that are views (one flush with its parent's right and bottom
// edges). Under -race -cpu 1,2 the bands of one call run on two workers.
func TestFastFusedMatchesResampleThenReference(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {6, 6}, {7, 7}, {13, sharpenBand / 2}, {5, sharpenBand/2 + 1}, {31, sharpenBand + 1}, {64, 64}}
	for _, fill := range planeFills {
		for _, alpha := range []float64{2, 0.7, 5.3, 1e300, math.Inf(1)} {
			for gi, g := range geoms {
				w, h := g[0], g[1]
				checkFused(t, filledImage(w, h, int64(gi+1), fill), alpha)
				parent := filledImage(w+4, h+3, int64(gi+50), fill)
				checkFused(t, parent.MustSubImage(2, 1, w, h), alpha)
				checkFused(t, parent.MustSubImage(4, 3, w, h), alpha)
			}
		}
	}
}

// FuzzFastSR2x: over arbitrary pixels, sizes 1..64 × 1..64, a source that
// is a strided view at an arbitrary offset into its parent (flush with its
// right edge when the offset byte is odd) and gains from 1/16 to 16, Fast's
// fused ×2 pass writes what the ×2 Lanczos-3 resample (itself held to the
// generic resampler by FuzzLanczos2x) followed by the reference sharpen
// writes, into dirty destinations.
func FuzzFastSR2x(f *testing.F) {
	f.Add([]byte{0, 255, 1, 254, 128, 127}, uint8(17), uint8(3), uint8(0), uint8(0), uint8(32))
	f.Add([]byte{255}, uint8(63), uint8(63), uint8(15), uint8(9), uint8(255))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(6), uint8(16), uint8(7), uint8(2), uint8(85))
	f.Fuzz(func(t *testing.T, data []byte, w, h, ox, oy, gain uint8) {
		sw, sh := int(w)%64+1, int(h)%64+1
		x0, y0 := int(ox)%16, int(oy)%16
		parent := frame.NewImage(sw+x0+1-int(ox)%2, sh+y0)
		if len(data) > 0 {
			for i := range parent.R {
				parent.R[i] = data[(3*i)%len(data)]
				parent.G[i] = data[(3*i+1)%len(data)]
				parent.B[i] = data[(3*i+2)%len(data)]
			}
		}
		checkFused(t, parent.MustSubImage(x0, y0, sw, sh), float64(max(gain, 1))/16)
	})
}

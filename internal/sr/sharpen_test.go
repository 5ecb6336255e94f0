package sr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/upscale"
)

// sharpenInto runs the shipped kernel from up into dst.
func sharpenInto(c *parallel.Client, dst, up *frame.Image, alpha float64) {
	s := &sharpenRun{up: *up}
	s.fn = s.bands
	s.sharpen(c, dst, alpha)
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
				sharpenInto(nil, got, up, alpha)
				if !got.Equal(want) {
					t.Fatalf("%s: packed result differs from the reference loop", what)
				}

				// The same source and destination as views into wider images.
				upParent := randImage(w+5, h+4, 7)
				upView := upParent.MustSubImage(2, 1, w, h)
				upView.CopyFrom(up)
				dstParent := randImage(w+3, h+2, 8)
				frameOf := dstParent.Clone()
				sharpenInto(nil, dstParent.MustSubImage(3, 2, w, h), upView, alpha)
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
// costs and nothing more — the intermediate image is the pool's, the
// rolling rows are the workers' and the submission's body is recycled.
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

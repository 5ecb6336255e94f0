package sr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/upscale"
)

// sharpenInto runs the shipped kernel from up into dst.
func sharpenInto(dst, up *frame.Image) {
	s := &sharpenRun{up: *up}
	s.fn = s.bands
	s.sharpen(dst)
}

// eachBody runs check on the kernels this GOARCH ships and, where those
// are vector bodies, again on the Go twins alone — the code every other
// GOARCH runs, through the same wrappers.
func eachBody(check func(body string)) {
	check("shipped")
	if haveSharpenBulk {
		haveSharpenBulk = false
		defer func() { haveSharpenBulk = true }()
		check("Go twins")
	}
}

// sharpenInPlace is the definition sharpenInto is held to, at any gain: the
// nine-sample loop Fast ran until the separable kernel replaced it, kept as
// it was.
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

// sharpenFloat is the float output expression the kernel ran until the
// gain became a constant, on one pixel of sample v, blur sum blur and
// extrema lo ≤ hi: v + α·(v − blur/16), clamped to [lo, hi], + 0.5,
// truncated.
func sharpenFloat(v, blur, lo, hi int, alpha float64) uint8 {
	out := float64(v) + alpha*(float64(v)-float64(blur)/16)
	return uint8(min(max(out, float64(lo)), float64(hi)) + 0.5)
}

// TestSharpenIntegerIdentity holds the kernel's integer form to the float
// expression at α = 2 on every sample v and blur sum 0 … 16·255, with lo
// and hi at 0, 255 and the integers around the float result (the clamp
// binding on either side of it, and on it): both bodies, through one row
// per v and bound pair whose lanes run over the sums. A row's reductions
// carry the blur sum in the row above and the extrema in the row at, the
// other rows' neutral.
func TestSharpenIntegerIdentity(t *testing.T) {
	const sums = 16*255 + 1
	n := (sums + 15) &^ 15
	a, c, b := make([]uint8, 4*n), make([]uint8, 4*n), make([]uint8, 4*n)
	for x := range n {
		o := x>>4*64 + x&15
		binary.LittleEndian.PutUint16(a[o+x&15:], uint16(min(x, sums-1)))
		a[o+32], a[o+48] = 255, 0
		b[o+32], b[o+48] = 255, 0
	}
	src, dst := make([]uint8, n+1), make([]uint8, sums)
	// bounds[blur] are 0, ⌊out⌋−1, ⌊out⌋, ⌈out⌉, ⌈out⌉+1 and 255 for the
	// float result out of the current v and blur, inside [0, 255].
	bounds := make([][6]uint8, sums)
	eachBody(func(body string) {
		for v := range 256 {
			for i := range src {
				src[i] = uint8(v)
			}
			for blur := range bounds {
				out := float64(v) + 2*(float64(v)-float64(blur)/16)
				fl, ce := int(math.Floor(out)), int(math.Ceil(out))
				for i, bd := range [6]int{0, fl - 1, fl, ce, ce + 1, 255} {
					bounds[blur][i] = uint8(min(max(bd, 0), 255))
				}
			}
			for i := range 6 {
				for j := i; j < 6; j++ {
					for blur, bd := range bounds {
						o := blur>>4*64 + blur&15
						c[o+32], c[o+48] = min(bd[i], bd[j]), max(bd[i], bd[j])
					}
					sharpenRow(dst, src, a, c, b)
					for blur, got := range dst {
						o := blur>>4*64 + blur&15
						lo, hi := int(c[o+32]), int(c[o+48])
						if want := sharpenFloat(v, blur, lo, hi, sharpenGain); got != want {
							t.Fatalf("%s: v %d blur %d lo %d hi %d: %d, float expression %d", body, v, blur, lo, hi, got, want)
						}
					}
				}
			}
		}
	})
}

// TestSharpenKernelsGuardBands holds each SSE2 loop to its Go twin on
// random rows: reduce16 over every lane count 16 … 160 at every
// misalignment of its source, and sharpen16 over the same counts at every
// misalignment of its destination, the outputs between sentinels that must
// survive (the race detector does not see inside assembly).
func TestSharpenKernelsGuardBands(t *testing.T) {
	if !haveSharpenBulk {
		t.Skip("no vector bodies on this GOARCH")
	}
	const guard = 64
	rng := rand.New(rand.NewSource(55))
	fill := func(p []uint8) {
		for i := range p {
			p[i] = uint8(rng.Intn(256))
		}
	}
	sentinels := func(p []uint8, lo, hi int) bool {
		for i, v := range p {
			if (i < lo || i >= hi) && v != 0xC5 {
				return false
			}
		}
		return true
	}
	for n := 16; n <= 160; n += 16 {
		for off := range 16 {
			// reduce16 from a misaligned pad into a block between guards.
			pads := make([]uint8, n+2+off)
			fill(pads)
			pad := pads[off:]
			want := make([]uint8, 4*n)
			reduceGo(want, pad)
			got := make([]uint8, 4*n+2*guard)
			for i := range got {
				got[i] = 0xC5
			}
			reduce16(&got[guard], &pad[0], n)
			if !bytes.Equal(got[guard:guard+4*n], want) || !sentinels(got, guard, guard+4*n) {
				t.Fatalf("reduce16 n=%d off=%d: block or guard bytes differ from reduceGo's", n, off)
			}

			// sharpen16 from three reduced random rows into a misaligned
			// destination between guards.
			var rows [3][]uint8
			for k := range rows {
				p := make([]uint8, n+2)
				fill(p)
				rows[k] = make([]uint8, 4*n)
				reduceGo(rows[k], p)
			}
			srcs := make([]uint8, n+off)
			fill(srcs)
			src := srcs[off:]
			wantOut := make([]uint8, n)
			sharpenGo(wantOut, src, rows[0], rows[1], rows[2])
			out := make([]uint8, n+2*guard+off)
			for i := range out {
				out[i] = 0xC5
			}
			sharpen16(&out[guard+off], &src[0], &rows[0][0], &rows[1][0], &rows[2][0], n)
			if !bytes.Equal(out[guard+off:guard+off+n], wantOut) || !sentinels(out, guard+off, guard+off+n) {
				t.Fatalf("sharpen16 n=%d off=%d: output or guard bytes differ from sharpenGo's", n, off)
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
// nine-sample loop at α = 2 byte for byte, on both bodies: every fill over
// geometries of one column, one row, fewer rows than a band, a band
// boundary on the last row and several bands, through packed images and
// through strided views of both the source and the destination (whose
// bytes outside the view must stay as they were). Run under -race -cpu 1,2
// it is also the seam test: at GOMAXPROCS 2 the bands of one image run on
// two workers.
func TestSharpenIntoMatchesReference(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3}, {7, 5}, {31, 17}, {16, 16}, {5, 33}, {40, 2*sharpenBand + 1}, {128, 128}}
	eachBody(func(body string) {
		for name, fill := range planeFills {
			for gi, g := range geoms {
				w, h := g[0], g[1]
				what := fmt.Sprintf("%s: %s %dx%d", body, name, w, h)
				up := filledImage(w, h, int64(gi+1), fill)
				want := up.Clone()
				sharpenInPlace(want, sharpenGain, nil)

				got := randImage(w, h, 99) // dirty
				sharpenInto(got, up)
				if !got.Equal(want) {
					t.Fatalf("%s: packed result differs from the reference loop", what)
				}

				// The same source and destination as views into wider images.
				upParent := randImage(w+5, h+4, 7)
				upView := mustSub(upParent, 2, 1, w, h)
				upView.CopyFrom(up)
				dstParent := randImage(w+3, h+2, 8)
				frameOf := dstParent.Clone()
				sharpenInto(mustSub(dstParent, 3, 2, w, h), upView)
				if !mustSub(dstParent, 3, 2, w, h).Equal(want) {
					t.Fatalf("%s: strided result differs from the reference loop", what)
				}
				mustSub(frameOf, 3, 2, w, h).CopyFrom(want)
				if !dstParent.Equal(frameOf) {
					t.Fatalf("%s: bytes outside the destination view were written", what)
				}
			}
		}
	})
}

// TestFastMatchesResampleThenReference is the same differential one level
// up, on both bodies: Fast on a rendered crop, a strided RoI view as the
// client passes it, equals the resample followed by the reference loop at
// α = 2 — for the allocating form and for the pooled one into a dirty
// destination (poisoned under -race and -tags bufpool_debug).
func TestFastMatchesResampleThenReference(t *testing.T) {
	wl := gamePatch(t, "G3", 20, 96, 54)
	f := NewFast(FastConfig{})
	eachBody(func(body string) {
		for _, view := range []*frame.Image{wl, mustSub(wl, 17, 9, 64, 40), mustSub(wl, 0, 0, 33, 1), mustSub(wl, 95, 3, 1, 50)} {
			want := mustResize(view, 2*view.W, 2*view.H, upscale.Lanczos3)
			sharpenInPlace(want, sharpenGain, nil)
			got, err := f.Upscale(view, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: %dx%d: Fast.Upscale differs from resample + reference sharpen", body, view.W, view.H)
			}
			pool := bufpool.New()
			for run := 0; run < 3; run++ {
				dst := pool.Image(2*view.W, 2*view.H)
				if err := f.UpscaleInto(dst, view, 2, pool); err != nil {
					t.Fatal(err)
				}
				if !dst.Equal(want) {
					t.Fatalf("%s: %dx%d run %d: pooled UpscaleInto differs from Upscale", body, view.W, view.H, run)
				}
				pool.PutImage(dst)
			}
		}
	})
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
// rendered frame, pooled, into a kept destination. Run with -cpu 1,2.
func BenchmarkFastSRRoI64(b *testing.B) {
	lr := gamePatch(b, "G3", 20, 160, 90)
	benchFastRoI(b, mustSub(lr, 48, 13, 64, 64)) // a strided view, as the client's is
}

// BenchmarkFastSRRoI300 is the same call on the paper's RoI: a 300×300
// window of a rendered 1280×720 frame (ROADMAP's target is ≤ 8 ms on one
// core). Run with -cpu 1,2.
func BenchmarkFastSRRoI300(b *testing.B) {
	wl, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	lr := wl.Render(&render.Renderer{}, 20, 1280, 720).Color
	benchFastRoI(b, mustSub(lr, 490, 210, 300, 300))
}

// benchFastRoI times Fast's pooled ×2 call on im into a kept destination.
func benchFastRoI(b *testing.B, im *frame.Image) {
	pool := bufpool.New()
	dst := pool.Image(2*im.W, 2*im.H)
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

// checkFused holds Fast's fused ×2 pass on im to the resample followed by
// the reference loop at α = 2, on both bodies: into a dirty packed
// destination, and into a strided view of a dirty canvas whose bytes
// outside the view must stay as they were.
func checkFused(t *testing.T, im *frame.Image) {
	t.Helper()
	want := mustResize(im, 2*im.W, 2*im.H, upscale.Lanczos3)
	sharpenInPlace(want, sharpenGain, nil)
	f := NewFast(FastConfig{})
	eachBody(func(body string) {
		got := randImage(2*im.W, 2*im.H, 98)
		if err := f.UpscaleInto(got, im, 2, nil); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %dx%d (stride %d): fused pass differs from resample + reference sharpen", body, im.W, im.H, im.Stride)
		}
		canvas := randImage(2*im.W+3, 2*im.H+2, 97)
		outside := canvas.Clone()
		if err := f.UpscaleInto(mustSub(canvas, 3, 1, 2*im.W, 2*im.H), im, 2, nil); err != nil {
			t.Fatal(err)
		}
		mustSub(outside, 3, 1, 2*im.W, 2*im.H).CopyFrom(want)
		if !canvas.Equal(outside) {
			t.Fatalf("%s: %dx%d: strided destination differs, or bytes outside it were written", body, im.W, im.H)
		}
	})
}

// TestFastFusedMatchesResampleThenReference is the fused pass's own
// differential, on both bodies, on noise and the other fills: one pixel, one column, one
// row, 2×2, sources without a Lanczos interior, an output that ends on a
// band, outputs whose last band holds two rows, several bands, and
// sources that are views (one flush with its parent's right and bottom
// edges). Under -race -cpu 1,2 the bands of one call run on two workers.
func TestFastFusedMatchesResampleThenReference(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {6, 6}, {7, 7}, {13, sharpenBand / 2}, {5, sharpenBand/2 + 1}, {31, sharpenBand + 1}, {64, 64}}
	for _, fill := range planeFills {
		for gi, g := range geoms {
			w, h := g[0], g[1]
			checkFused(t, filledImage(w, h, int64(gi+1), fill))
			parent := filledImage(w+4, h+3, int64(gi+50), fill)
			checkFused(t, mustSub(parent, 2, 1, w, h))
			checkFused(t, mustSub(parent, 4, 3, w, h))
		}
	}
}

// FuzzFastSR2x: over arbitrary pixels, sizes 1..64 × 1..64 and a source
// that is a strided view at an arbitrary offset into its parent (flush with
// its right edge when the offset byte is odd), Fast's fused ×2 pass writes
// what the ×2 Lanczos-3 resample (itself held to the generic resampler by
// FuzzLanczos2x) followed by the reference sharpen at α = 2 writes, into
// dirty destinations, on both bodies.
func FuzzFastSR2x(f *testing.F) {
	f.Add([]byte{0, 255, 1, 254, 128, 127}, uint8(17), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{255}, uint8(63), uint8(63), uint8(15), uint8(9))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(6), uint8(16), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w, h, ox, oy uint8) {
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
		checkFused(t, mustSub(parent, x0, y0, sw, sh))
	})
}

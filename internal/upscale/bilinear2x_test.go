package upscale

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// dirtyImage returns a w×h image full of a sentinel, as a pooled
// destination would arrive.
func dirtyImage(w, h int) *frame.Image {
	im := frame.NewImagePacked(w, h)
	fill(im, 0xA5, 0x5A, 0xC3)
	return im
}

// check2xMatchesGeneric resizes src ×2 with kernel k through the public
// entry point (which must pick the kernel's ×2 path) and through the generic
// resampler, both into dirty destinations, and requires identical bytes.
func check2xMatchesGeneric(t *testing.T, k Kind, src *frame.Image, pool *bufpool.Pool) {
	t.Helper()
	got, want := dirtyImage(2*src.W, 2*src.H), dirtyImage(2*src.W, 2*src.H)
	if err := ResizeInto(got, src, k, pool); err != nil {
		t.Fatal(err)
	}
	resizeGeneric(want, src, k, pool)
	if !got.Equal(want) {
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				gr, gg, gb := at(got, x, y)
				wr, wg, wb := at(want, x, y)
				if gr != wr || gg != wg || gb != wb {
					t.Fatalf("%v %dx%d (stride %d): pixel (%d,%d) fast %v generic %v",
						k, src.W, src.H, src.Stride, x, y, [3]uint8{gr, gg, gb}, [3]uint8{wr, wg, wb})
				}
			}
		}
	}
}

// TestBilinear2xMatchesGenericResampler is the differential test of the ×2
// fast path: every size 1..33 × 1..33 (all word-tail lengths of the blend,
// single-row and single-column edges) plus the 180p and 720p geometries, on
// noise (every byte pair incl. 0 and 255 occurs), packed and as strided
// SubImage views, into dirty destinations, at GOMAXPROCS 1 and 2.
func TestBilinear2xMatchesGenericResampler(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := bufpool.New()
			parent := noiseImage(40, 40, 11)
			for h := 1; h <= 33; h++ {
				for w := 1; w <= 33; w++ {
					check2xMatchesGeneric(t, Bilinear, noiseImage(w, h, int64(w*64+h)), pool)
					check2xMatchesGeneric(t, Bilinear, mustSub(parent, 3, 5, w, h), nil)
				}
			}
			sizes := [][2]int{{320, 180}}
			if !testing.Short() {
				sizes = append(sizes, [2]int{1280, 720})
			}
			for _, sz := range sizes {
				check2xMatchesGeneric(t, Bilinear, noiseImage(sz[0], sz[1], 3), pool)
			}
		})
	}
}

// TestBilinear2xStridedDestination: the destination may be a view too (the
// kernel indexes both images by stride), and pixels outside it stay put.
func TestBilinear2xStridedDestination(t *testing.T) {
	src := noiseImage(13, 9, 5)
	canvas := dirtyImage(40, 30)
	view := mustSub(canvas, 7, 4, 26, 18)
	if err := ResizeInto(view, src, Bilinear, nil); err != nil {
		t.Fatal(err)
	}
	want := frame.NewImagePacked(26, 18)
	resizeGeneric(want, src, Bilinear, nil)
	if !view.Equal(want) {
		t.Fatal("strided destination differs from the generic resampler")
	}
	for y := 0; y < canvas.H; y++ {
		for x := 0; x < canvas.W; x++ {
			if x >= 7 && x < 33 && y >= 4 && y < 22 {
				continue
			}
			if r, g, b := at(canvas, x, y); r != 0xA5 || g != 0x5A || b != 0xC3 {
				t.Fatalf("pixel (%d,%d) outside the view was written", x, y)
			}
		}
	}
}

// TestBlendRow2xExhaustive checks the blend against the scalar definition
// for every (far, near) byte pair, in every lane: through blendRow2x (the
// vector bulk where the GOARCH has one) and through blendWords alone, so
// the portable word loop stays covered on amd64 too.
func TestBlendRow2xExhaustive(t *testing.T) {
	far, near, dst := make([]uint8, 256*256), make([]uint8, 256*256), make([]uint8, 256*256)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			far[a*256+b], near[a*256+b] = uint8(a), uint8(b)
		}
	}
	for _, k := range rowKernels {
		for shift := 0; shift < 16; shift++ {
			clear(dst)
			k.blend(dst[shift:], far[shift:], near[shift:])
			for i := shift; i < len(dst); i++ {
				if want := uint8((uint32(far[i]) + 3*uint32(near[i]) + 2) >> 2); dst[i] != want {
					t.Fatalf("%s, shift %d: blend(%d, %d) = %d, want %d", k.name, shift, far[i], near[i], dst[i], want)
				}
			}
		}
	}
}

// rowKernels are the two forms of each row pass: the entry points the
// kernel calls (vector bulk, then word loop and scalar edges) and the
// portable word loops on their own.
var rowKernels = []struct {
	name   string
	expand func(dst, src []uint8)
	blend  func(dst, far, near []uint8)
}{
	{"kernel", expandRow2x, blendRow2x},
	{"portable",
		func(dst, src []uint8) { expandWords(dst, src, 1) },
		func(dst, far, near []uint8) { blendWords(dst, far, near, 0) }},
}

// TestBilinear2xRowGuardBands holds the row passes to their bounds, which
// the race detector cannot do for the assembly bulk (it is not
// instrumented). Every length 0..80 — each tail of the 16- and 8-byte
// loops — at every source and destination misalignment 0..15, carved from
// larger buffers: the destination between sentinel bytes that must survive,
// the sources between random bytes a stray read would blend in. Every
// output byte must equal the scalar definition, with replicated edges.
func TestBilinear2xRowGuardBands(t *testing.T) {
	const guard, maxN, sentinel = 48, 80, 0xC5
	rng := rand.New(rand.NewSource(38))
	noise := func(n int) []uint8 {
		b := make([]uint8, n)
		rng.Read(b)
		return b
	}
	srcBuf, farBuf := noise(2*guard+16+maxN), noise(2*guard+16+maxN)
	dstBuf := make([]uint8, 2*guard+16+2*maxN)
	srcCopy, farCopy := append([]uint8(nil), srcBuf...), append([]uint8(nil), farBuf...)
	scalar := func(src []uint8, i int) uint8 { return src[max(0, min(i, len(src)-1))] }
	blend := func(far, near uint8) uint8 { return uint8((uint32(far) + 3*uint32(near) + 2) >> 2) }

	// check runs one call with dst carved at dOff and n output bytes, and
	// compares against want(i) for each of them.
	check := func(what string, n, sOff, dOff int, call func(dst []uint8), want func(i int) uint8) {
		t.Helper()
		for i := range dstBuf {
			dstBuf[i] = sentinel
		}
		call(dstBuf[guard+dOff : guard+dOff+n])
		for i, v := range dstBuf {
			j := i - guard - dOff
			if j < 0 || j >= n {
				if v != sentinel {
					t.Fatalf("%s (n=%d, src+%d, dst+%d): guard byte %d written (%#x)", what, n, sOff, dOff, j, v)
				}
			} else if w := want(j); v != w {
				t.Fatalf("%s (n=%d, src+%d, dst+%d): byte %d = %d, want %d", what, n, sOff, dOff, j, v, w)
			}
		}
	}
	for _, k := range rowKernels {
		for n := 0; n <= maxN; n++ {
			for sOff := 0; sOff < 16; sOff++ {
				src := srcBuf[guard+sOff : guard+sOff+n]
				far := farBuf[guard+15-sOff : guard+15-sOff+n]
				for dOff := 0; dOff < 16; dOff++ {
					check(k.name+" expand", 2*n, sOff, dOff,
						func(dst []uint8) { k.expand(dst, src) },
						func(j int) uint8 { return blend(scalar(src, j/2-1+2*(j%2)), src[j/2]) })
					check(k.name+" blend", n, sOff, dOff,
						func(dst []uint8) { k.blend(dst, far, src) },
						func(j int) uint8 { return blend(far[j], src[j]) })
				}
			}
		}
	}
	if !bytes.Equal(srcBuf, srcCopy) || !bytes.Equal(farBuf, farCopy) {
		t.Fatal("a row pass wrote into its source")
	}
}

// FuzzBilinear2x: over arbitrary pixels, sizes 1..64 × 1..64 and a source
// that is a strided view at an arbitrary offset into its parent, the ×2
// fast path writes exactly what the generic resampler writes, into a dirty
// destination.
func FuzzBilinear2x(f *testing.F) {
	f.Add([]byte{0, 255, 1, 254, 128, 127}, uint8(17), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{255}, uint8(63), uint8(63), uint8(15), uint8(9))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(33), uint8(1), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w, h, ox, oy uint8) {
		sw, sh := int(w)%64+1, int(h)%64+1
		x0, y0 := int(ox)%16, int(oy)%16
		parent := frame.NewImage(sw+x0+1, sh+y0)
		if len(data) > 0 {
			for i := range parent.R {
				parent.R[i] = data[(3*i)%len(data)]
				parent.G[i] = data[(3*i+1)%len(data)]
				parent.B[i] = data[(3*i+2)%len(data)]
			}
		}
		check2xMatchesGeneric(t, Bilinear, mustSub(parent, x0, y0, sw, sh), nil)
	})
}

// TestOtherRatiosKeepGenericPath: only Bilinear and Lanczos3 at exactly ×2
// on both axes are diverted; mixed ratios and other kernels at ×2 go
// through the polyphase pair and still satisfy their own properties.
func TestOtherRatiosKeepGenericPath(t *testing.T) {
	src := noiseImage(12, 10, 9)
	for _, tc := range []struct {
		w, h int
		k    Kind
	}{{24, 10, Bilinear}, {24, 30, Bilinear}, {48, 40, Bilinear}, {24, 30, Lanczos3}, {24, 20, Bicubic}, {24, 20, Nearest}} {
		got, want := dirtyImage(tc.w, tc.h), dirtyImage(tc.w, tc.h)
		if err := ResizeInto(got, src, tc.k, nil); err != nil {
			t.Fatal(err)
		}
		resizeGeneric(want, src, tc.k, nil)
		if !got.Equal(want) {
			t.Errorf("%v to %dx%d differs from the generic resampler", tc.k, tc.w, tc.h)
		}
	}
}

// BenchmarkBilinearInto720pTo1440p is the pooled form the client and the
// engine call every frame (BenchmarkBilinear720pTo1440p is the allocating
// one).
func BenchmarkBilinearInto720pTo1440p(b *testing.B) {
	src := noiseImage(1280, 720, 3)
	dst := frame.NewImagePacked(2560, 1440)
	pool := bufpool.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ResizeInto(dst, src, Bilinear, pool); err != nil {
			b.Fatal(err)
		}
	}
}

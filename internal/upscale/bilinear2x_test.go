package upscale

import (
	"fmt"
	"runtime"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// dirtyImage returns a w×h image full of a sentinel, as a pooled
// destination would arrive.
func dirtyImage(w, h int) *frame.Image {
	im := frame.NewImagePacked(w, h)
	im.Fill(0xA5, 0x5A, 0xC3)
	return im
}

// checkBilinear2xMatchesGeneric resizes src ×2 through the public entry
// point (which must pick the integer kernel) and through the generic
// resampler, both into dirty destinations, and requires identical bytes.
func checkBilinear2xMatchesGeneric(t *testing.T, src *frame.Image, pool *bufpool.Pool) {
	t.Helper()
	got, want := dirtyImage(2*src.W, 2*src.H), dirtyImage(2*src.W, 2*src.H)
	if err := ResizeInto(got, src, Bilinear, pool); err != nil {
		t.Fatal(err)
	}
	resizeGeneric(nil, want, src, Bilinear, pool)
	if !got.Equal(want) {
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				gr, gg, gb := got.At(x, y)
				wr, wg, wb := want.At(x, y)
				if gr != wr || gg != wg || gb != wb {
					t.Fatalf("%dx%d (stride %d): pixel (%d,%d) fast %v generic %v",
						src.W, src.H, src.Stride, x, y, [3]uint8{gr, gg, gb}, [3]uint8{wr, wg, wb})
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
					checkBilinear2xMatchesGeneric(t, noiseImage(w, h, int64(w*64+h)), pool)
					checkBilinear2xMatchesGeneric(t, parent.MustSubImage(3, 5, w, h), nil)
				}
			}
			sizes := [][2]int{{320, 180}}
			if !testing.Short() {
				sizes = append(sizes, [2]int{1280, 720})
			}
			for _, sz := range sizes {
				checkBilinear2xMatchesGeneric(t, noiseImage(sz[0], sz[1], 3), pool)
			}
		})
	}
}

// TestBilinear2xStridedDestination: the destination may be a view too (the
// kernel indexes both images by stride), and pixels outside it stay put.
func TestBilinear2xStridedDestination(t *testing.T) {
	src := noiseImage(13, 9, 5)
	canvas := dirtyImage(40, 30)
	view := canvas.MustSubImage(7, 4, 26, 18)
	if err := ResizeInto(view, src, Bilinear, nil); err != nil {
		t.Fatal(err)
	}
	want := frame.NewImagePacked(26, 18)
	resizeGeneric(nil, want, src, Bilinear, nil)
	if !view.Equal(want) {
		t.Fatal("strided destination differs from the generic resampler")
	}
	for y := 0; y < canvas.H; y++ {
		for x := 0; x < canvas.W; x++ {
			if x >= 7 && x < 33 && y >= 4 && y < 22 {
				continue
			}
			if r, g, b := canvas.At(x, y); r != 0xA5 || g != 0x5A || b != 0xC3 {
				t.Fatalf("pixel (%d,%d) outside the view was written", x, y)
			}
		}
	}
}

// TestBlendRow2xExhaustive checks the word-parallel blend against the
// scalar definition for every (far, near) byte pair, in every lane.
func TestBlendRow2xExhaustive(t *testing.T) {
	far, near, dst := make([]uint8, 256*256), make([]uint8, 256*256), make([]uint8, 256*256)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			far[a*256+b], near[a*256+b] = uint8(a), uint8(b)
		}
	}
	for shift := 0; shift < 8; shift++ {
		blendRow2x(dst[shift:], far[shift:], near[shift:])
		for i := shift; i < len(dst); i++ {
			if want := uint8((uint32(far[i]) + 3*uint32(near[i]) + 2) >> 2); dst[i] != want {
				t.Fatalf("shift %d: blend(%d, %d) = %d, want %d", shift, far[i], near[i], dst[i], want)
			}
		}
	}
}

// TestOtherRatiosKeepGenericPath: only Bilinear at exactly ×2 on both axes
// is diverted; mixed ratios and other kernels at ×2 go through the
// polyphase pair and still satisfy their own properties.
func TestOtherRatiosKeepGenericPath(t *testing.T) {
	src := noiseImage(12, 10, 9)
	for _, tc := range []struct {
		w, h int
		k    Kind
	}{{24, 10, Bilinear}, {24, 30, Bilinear}, {48, 40, Bilinear}, {24, 20, Bicubic}, {24, 20, Nearest}} {
		got, want := dirtyImage(tc.w, tc.h), dirtyImage(tc.w, tc.h)
		if err := ResizeInto(got, src, tc.k, nil); err != nil {
			t.Fatal(err)
		}
		resizeGeneric(nil, want, src, tc.k, nil)
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

package upscale

import (
	"math"
	"testing"
	"testing/quick"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/testkit"
)

// mustResize is Resize for arguments the test has validated.
func mustResize(src *frame.Image, w, h int, k Kind) *frame.Image {
	out, err := Resize(src, w, h, k)
	if err != nil {
		panic(err)
	}
	return out
}

func constImage(w, h int, r, g, b uint8) *frame.Image {
	im := frame.NewImage(w, h)
	testkit.Fill(im, r, g, b)
	return im
}

func rampImage(w, h int) *frame.Image {
	im := frame.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint8(x*255/(w-1)), uint8(y*255/(h-1)), 128)
		}
	}
	return im
}

func TestKindString(t *testing.T) {
	if Nearest.String() != "nearest" || Bilinear.String() != "bilinear" ||
		Bicubic.String() != "bicubic" || Lanczos3.String() != "lanczos3" {
		t.Error("kind names")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind name")
	}
}

// Every kernel must reproduce a constant image exactly (partition of unity
// after normalisation).
func TestConstantPreservation(t *testing.T) {
	for _, k := range []Kind{Nearest, Bilinear, Bicubic, Lanczos3} {
		src := constImage(13, 9, 77, 130, 201)
		for _, sz := range [][2]int{{26, 18}, {39, 27}, {7, 5}, {13, 9}} {
			out, err := Resize(src, sz[0], sz[1], k)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			for i := range out.R {
				if out.R[i] != 77 || out.G[i] != 130 || out.B[i] != 201 {
					t.Fatalf("%v %dx%d: constant not preserved at %d: (%d,%d,%d)",
						k, sz[0], sz[1], i, out.R[i], out.G[i], out.B[i])
				}
			}
		}
	}
}

// Bilinear and higher-order kernels reproduce linear ramps to within
// rounding when upscaling by an integer factor.
func TestRampPreservation(t *testing.T) {
	src := rampImage(32, 32)
	for _, k := range []Kind{Bilinear, Bicubic, Lanczos3} {
		out := mustResize(src, 64, 64, k)
		// Compare interior against the analytic ramp; boundaries are
		// clamped so we skip a margin of the kernel radius.
		margin := int(2 * k.support() * 2)
		var maxErr float64
		for y := margin; y < 64-margin; y++ {
			for x := margin; x < 64-margin; x++ {
				// Destination pixel center maps to source coordinate
				// (x+0.5)/2-0.5; the source ramp is R = sx*255/31.
				sx := (float64(x)+0.5)/2 - 0.5
				want := sx * 255 / 31
				got := float64(out.R[y*out.Stride+x])
				if e := math.Abs(got - want); e > maxErr {
					maxErr = e
				}
			}
		}
		if maxErr > 1.5 {
			t.Errorf("%v: ramp error %.2f > 1.5", k, maxErr)
		}
	}
}

func TestIdentityResize(t *testing.T) {
	src := testkit.Noise(21, 17, 4)
	out := mustResize(src, 21, 17, Lanczos3)
	if !src.Equal(out) {
		t.Fatal("identity resize must be exact")
	}
	// And must be a copy, not an alias.
	out.Set(0, 0, 1, 2, 3)
	if src.Equal(out) {
		t.Fatal("identity resize must not alias the source")
	}
}

func TestResizeValidation(t *testing.T) {
	src := constImage(4, 4, 0, 0, 0)
	if _, err := Resize(src, 0, 4, Bilinear); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := Resize(src, 4, -1, Bilinear); err == nil {
		t.Error("negative height should fail")
	}
	if _, err := Resize(frame.NewImage(0, 0), 4, 4, Bilinear); err == nil {
		t.Error("empty source should fail")
	}
}

func TestDownscaleAntiAlias(t *testing.T) {
	// A 1px checkerboard downsampled 4x with a stretched kernel must land
	// near mid-gray, not collapse to one phase.
	src := frame.NewImage(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			v := uint8(0)
			if (x+y)%2 == 0 {
				v = 255
			}
			src.Set(x, y, v, v, v)
		}
	}
	out := mustResize(src, 16, 16, Bilinear)
	for i := range out.R {
		if out.R[i] < 100 || out.R[i] > 155 {
			t.Fatalf("aliased downscale: pixel %d = %d", i, out.R[i])
		}
	}
}

func TestHigherOrderKernelsSharper(t *testing.T) {
	// Upscaling a downsampled noise image: Lanczos-3 must reconstruct at
	// least as well as bilinear in mean squared error terms.
	hi := noiseSmooth(64, 64, 5)
	lo := mustResize(hi, 32, 32, Bilinear)
	mseOf := func(k Kind) float64 {
		up := mustResize(lo, 64, 64, k)
		var sum float64
		for i := range up.R {
			d := float64(up.R[i]) - float64(hi.R[i])
			sum += d * d
		}
		return sum / float64(len(up.R))
	}
	bil := mseOf(Bilinear)
	lan := mseOf(Lanczos3)
	if lan >= bil {
		t.Errorf("lanczos MSE %.2f should beat bilinear %.2f", lan, bil)
	}
}

// noiseSmooth builds band-limited noise (so reconstruction is meaningful).
func noiseSmooth(w, h int, seed int64) *frame.Image {
	rough := testkit.Noise(w/4, h/4, seed)
	return mustResize(rough, w, h, Bicubic)
}

func TestMerge(t *testing.T) {
	base := constImage(64, 64, 10, 10, 10)
	roiHR := constImage(20, 20, 200, 200, 200)
	roiLR := frame.Rect{X: 5, Y: 6, W: 10, H: 10}
	if err := Merge(base, roiHR, roiLR, 2); err != nil {
		t.Fatal(err)
	}
	// Inside the scaled RoI.
	if r, _, _ := testkit.At(base, 10, 12); r != 200 {
		t.Error("RoI top-left not merged")
	}
	if r, _, _ := testkit.At(base, 29, 31); r != 200 {
		t.Error("RoI bottom-right not merged")
	}
	// Outside.
	if r, _, _ := testkit.At(base, 9, 12); r != 10 {
		t.Error("pixel left of RoI was overwritten")
	}
	if r, _, _ := testkit.At(base, 30, 31); r != 10 {
		t.Error("pixel right of RoI was overwritten")
	}
}

func TestMergeValidation(t *testing.T) {
	base := constImage(32, 32, 0, 0, 0)
	roi := constImage(10, 10, 1, 1, 1)
	if err := Merge(base, roi, frame.Rect{X: 0, Y: 0, W: 5, H: 5}, 0); err == nil {
		t.Error("zero scale should fail")
	}
	if err := Merge(base, roi, frame.Rect{X: 0, Y: 0, W: 6, H: 5}, 2); err == nil {
		t.Error("patch/rect mismatch should fail")
	}
	if err := Merge(base, roi, frame.Rect{X: 14, Y: 0, W: 5, H: 5}, 2); err == nil {
		t.Error("out-of-frame RoI should fail")
	}
}

func TestMergeProperty(t *testing.T) {
	// For random valid configurations, pixels outside the scaled RoI are
	// untouched and pixels inside equal the patch.
	f := func(x, y uint8, wseed, hseed uint8) bool {
		const scale = 2
		baseW, baseH := 48, 40
		rw := int(wseed)%8 + 1
		rh := int(hseed)%8 + 1
		rx := int(x) % (baseW/scale - rw + 1)
		ry := int(y) % (baseH/scale - rh + 1)
		base := constImage(baseW, baseH, 3, 3, 3)
		patch := constImage(rw*scale, rh*scale, 250, 250, 250)
		r := frame.Rect{X: rx, Y: ry, W: rw, H: rh}
		if err := Merge(base, patch, r, scale); err != nil {
			return false
		}
		hr := r.Scale(scale)
		for yy := 0; yy < baseH; yy++ {
			for xx := 0; xx < baseW; xx++ {
				v, _, _ := testkit.At(base, xx, yy)
				if xx >= hr.X && xx < hr.X+hr.W && yy >= hr.Y && yy < hr.Y+hr.H {
					if v != 250 {
						return false
					}
				} else if v != 3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResizePlane(t *testing.T) {
	src := []float64{0, 1, 2, 3}
	out := make([]float64, 16)
	if err := ResizePlaneInto(out, src, 2, 2, 4, 4, Bilinear, nil); err != nil {
		t.Fatal(err)
	}
	// Corners replicate source corners (clamped kernel).
	if out[0] != 0 || out[15] != 3 {
		t.Errorf("corners = %f, %f", out[0], out[15])
	}
	// Monotone along rows.
	for x := 1; x < 4; x++ {
		if out[x] < out[x-1] {
			t.Errorf("row not monotone at %d: %v", x, out[:4])
		}
	}
	if err := ResizePlaneInto(out, src, 3, 2, 4, 4, Bilinear, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := ResizePlaneInto(nil, src, 2, 2, 0, 4, Bilinear, nil); err == nil {
		t.Error("invalid target should fail")
	}
}

func TestResizePlaneNegativeValues(t *testing.T) {
	// Residual planes are signed; resampling must not clamp them.
	src := []float64{-10, -10, -10, -10}
	out := make([]float64, 9)
	if err := ResizePlaneInto(out, src, 2, 2, 3, 3, Bilinear, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != -10 {
			t.Fatalf("signed plane distorted: %v", out)
		}
	}
}

func TestExtremeScaleFactors(t *testing.T) {
	src := testkit.Noise(8, 8, 2)
	// 1 -> many and many -> 1.
	big := mustResize(src, 97, 3, Lanczos3)
	if big.W != 97 || big.H != 3 {
		t.Fatal("unexpected size")
	}
	tiny := mustResize(src, 1, 1, Bicubic)
	if tiny.W != 1 || tiny.H != 1 {
		t.Fatal("unexpected tiny size")
	}
}

func BenchmarkBilinear720pTo1440p(b *testing.B) {
	src := testkit.Noise(1280, 720, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustResize(src, 2560, 1440, Bilinear)
	}
}

func BenchmarkLanczosRoI300(b *testing.B) {
	src := testkit.Noise(300, 300, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustResize(src, 600, 600, Lanczos3)
	}
}

func TestAreaDownsampleExactAverage(t *testing.T) {
	// Integer 2x downscale with the Area kernel averages each 2x2 tile
	// exactly (within rounding).
	src := frame.NewImage(4, 4)
	vals := []uint8{
		10, 20, 30, 40,
		50, 60, 70, 80,
		90, 100, 110, 120,
		130, 140, 150, 160,
	}
	for i, v := range vals {
		src.R[i], src.G[i], src.B[i] = v, v, v
	}
	out := mustResize(src, 2, 2, Area)
	want := []uint8{35, 55, 115, 135} // tile means
	for i, w := range want {
		if d := int(out.R[i]) - int(w); d < -1 || d > 1 {
			t.Errorf("tile %d = %d, want %d", i, out.R[i], w)
		}
	}
}

func TestAreaKindMetadata(t *testing.T) {
	if Area.String() != "area" {
		t.Errorf("name = %q", Area.String())
	}
	// Constants preserved like every other kernel.
	src := constImage(9, 9, 42, 42, 42)
	out := mustResize(src, 3, 3, Area)
	for i := range out.R {
		if out.R[i] != 42 {
			t.Fatal("area kernel distorted a constant")
		}
	}
}

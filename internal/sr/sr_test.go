package sr

import (
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/testkit"
	"gamestreamsr/internal/upscale"
)

// mustResize is upscale.Resize for arguments the test has validated.
func mustResize(src *frame.Image, w, h int, k upscale.Kind) *frame.Image {
	out, err := upscale.Resize(src, w, h, k)
	if err != nil {
		panic(err)
	}
	return out
}

// at and set address element (c, y, x) of t.
func (t *Tensor) at(c, y, x int) float32     { return t.Data[(c*t.H+y)*t.W+x] }
func (t *Tensor) set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	x.set(1, 2, 3, 7)
	if x.at(1, 2, 3) != 7 {
		t.Fatal("set/at")
	}
	if len(x.Plane(1)) != 12 {
		t.Fatal("plane size")
	}
	if x.Plane(1)[2*4+3] != 7 {
		t.Fatal("plane aliasing")
	}
}

func TestConvIdentity(t *testing.T) {
	c := NewConv2D(1, 1, 3)
	c.Weight[c.WIndex(0, 0, 1, 1)] = 1
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := forward(c, in)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv differs at %d", i)
		}
	}
}

func TestConvShiftAndReplicatePadding(t *testing.T) {
	// A kernel with its tap left of center shifts the image right; at the
	// left border replicate padding repeats the edge column.
	c := NewConv2D(1, 1, 3)
	c.Weight[c.WIndex(0, 0, 1, 0)] = 1
	in := NewTensor(1, 1, 4)
	copy(in.Data, []float32{1, 2, 3, 4})
	out := forward(c, in)
	want := []float32{1, 1, 2, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestConvBiasAndChannelMix(t *testing.T) {
	c := NewConv2D(2, 1, 1)
	c.Weight[c.WIndex(0, 0, 0, 0)] = 2
	c.Weight[c.WIndex(0, 1, 0, 0)] = 3
	c.Bias[0] = 10
	in := NewTensor(2, 1, 1)
	in.set(0, 0, 0, 5)
	in.set(1, 0, 0, 7)
	out := forward(c, in)
	if out.at(0, 0, 0) != 2*5+3*7+10 {
		t.Fatalf("got %f", out.at(0, 0, 0))
	}
}

func TestConvPanicsOnChannelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	forward(NewConv2D(2, 1, 3), NewTensor(3, 2, 2))
}

func TestReLU(t *testing.T) {
	x := NewTensor(1, 1, 4)
	copy(x.Data, []float32{-1, 0, 2, -0.5})
	ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("relu = %v", x.Data)
		}
	}
}

func TestPixelShuffle(t *testing.T) {
	// 4 channels, 2x2 -> 1 channel 4x4 with phases interleaved.
	in := NewTensor(4, 2, 2)
	for c := 0; c < 4; c++ {
		for i := 0; i < 4; i++ {
			in.Plane(c)[i] = float32(c*10 + i)
		}
	}
	out := NewTensor(1, 4, 4)
	PixelShuffleInto(out, in, 2)
	// Output (0,0) is phase (0,0) of source (0,0) = channel 0.
	if out.at(0, 0, 0) != 0 {
		t.Errorf("(0,0) = %f", out.at(0, 0, 0))
	}
	// Output (0,1) is phase dx=1 = channel 1.
	if out.at(0, 0, 1) != 10 {
		t.Errorf("(0,1) = %f", out.at(0, 0, 1))
	}
	// Output (1,0) is phase dy=1 = channel 2.
	if out.at(0, 1, 0) != 20 {
		t.Errorf("(1,0) = %f", out.at(0, 1, 0))
	}
	// Output (3,3): source (1,1), phase (1,1) = channel 3, element 3.
	if out.at(0, 3, 3) != 33 {
		t.Errorf("(3,3) = %f", out.at(0, 3, 3))
	}
}

func TestImageTensorRoundTrip(t *testing.T) {
	im := testkit.Noise(5, 4, 2)
	tensor := NewTensor(3, 4, 5)
	FromImageInto(tensor, im)
	back := frame.NewImagePacked(5, 4)
	ToImageInto(back, tensor)
	if !im.Equal(back) {
		t.Fatal("image->tensor->image round trip lost data")
	}
}

func TestFLOPsCounting(t *testing.T) {
	c := NewConv2D(3, 64, 3)
	if c.FLOPs(10, 10) != 3*64*9*100 {
		t.Errorf("conv FLOPs = %d", c.FLOPs(10, 10))
	}
	n := NewNetwork(Spec{Blocks: 2, Channels: 8, K: 3, UpK: 5})
	// head + 2 blocks ×2 convs + bodyEnd at LR, up at LR, tail at HR.
	want := int64(3*8*9+4*(8*8*9)+8*8*9+8*32*25)*100 + int64(8*3*9)*400
	if got := n.FLOPs(10, 10); got != want {
		t.Errorf("network FLOPs = %d, want %d", got, want)
	}
}

// The central claim of the weight construction: a real conv/ReLU EDSR
// topology with analytic weights computes polyphase interpolation. With
// the block strength and the unsharp gain off it must match upscale.Resize
// bit-for-bit away from the borders (border handling differs: replicate-pad
// vs renormalised truncation).
func TestNetworkMatchesResize(t *testing.T) {
	spec := Spec{Blocks: 3, Channels: 8, K: 3, UpK: 5}
	n := newInterpEDSR(spec, upscale.Bicubic, 0, 0)
	im := gamePatch(t, "G3", 0, 24, 24)
	got, err := n.Upscale(im, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := mustResize(im, 48, 48, upscale.Bicubic)
	if got.W != 48 || got.H != 48 {
		t.Fatalf("output size %dx%d", got.W, got.H)
	}
	const margin = 6
	var maxDiff int
	for y := margin; y < 48-margin; y++ {
		for x := margin; x < 48-margin; x++ {
			gr, gg, gb := testkit.At(got, x, y)
			wr, wg, wb := testkit.At(want, x, y)
			for _, d := range []int{int(gr) - int(wr), int(gg) - int(wg), int(gb) - int(wb)} {
				if d < 0 {
					d = -d
				}
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
	}
	if maxDiff > 1 {
		t.Errorf("network vs resize interior max diff = %d levels, want ≤ 1", maxDiff)
	}
}

// gamePatch renders a small crop of a game frame for quality tests.
func gamePatch(t testing.TB, id string, fi, w, h int) *frame.Image {
	t.Helper()
	wl, err := games.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	out := wl.Render(&render.Renderer{}, fi, 4*w, 4*h)
	// Central crop keeps foreground detail in frame.
	return testkit.MustSub(out.Color, (4*w-w)/2, (4*h-h)/2, w, h).Clone()
}

// Quality ordering on real rendered content: the SR engines must beat plain
// bilinear interpolation when reconstructing a downsampled game frame.
func TestSRBeatsBilinear(t *testing.T) {
	wl, _ := games.ByID("G3")
	hi := wl.Render(&render.Renderer{}, 20, 256, 144).Color
	lo := mustResize(hi, 128, 72, upscale.Bilinear)

	bilUp := mustResize(lo, 256, 144, upscale.Bilinear)
	basePSNR := testkit.PSNR(hi, bilUp)

	fast := NewFast(FastConfig{})
	fastUp, err := fast.Upscale(lo, 2)
	if err != nil {
		t.Fatal(err)
	}
	fastPSNR := testkit.PSNR(hi, fastUp)
	if fastPSNR <= basePSNR {
		t.Errorf("fast SR PSNR %.2f should beat bilinear %.2f", fastPSNR, basePSNR)
	}

	net := NewInterpEDSR(Spec{Blocks: 3, Channels: 8})
	netUp, err := net.Upscale(lo, 2)
	if err != nil {
		t.Fatal(err)
	}
	netPSNR := testkit.PSNR(hi, netUp)
	if netPSNR <= basePSNR {
		t.Errorf("EDSR PSNR %.2f should beat bilinear %.2f", netPSNR, basePSNR)
	}
	t.Logf("bilinear %.2f dB, fast %.2f dB, edsr %.2f dB", basePSNR, fastPSNR, netPSNR)
}

func TestFastConstantImage(t *testing.T) {
	im := frame.NewImage(16, 16)
	testkit.Fill(im, 90, 120, 33)
	out, err := NewFast(FastConfig{}).Upscale(im, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.R {
		if out.R[i] != 90 || out.G[i] != 120 || out.B[i] != 33 {
			t.Fatal("constant image distorted by SR")
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := (BilinearEngine{}).Upscale(frame.NewImage(4, 4), -1); err == nil {
		t.Error("negative scale should fail")
	}
	// Fast and the network compute ×2 only and refuse every other scale,
	// in both forms.
	n := NewInterpEDSR(Spec{Blocks: 1, Channels: 4})
	for _, e := range []Engine{NewFast(FastConfig{}), n} {
		for _, scale := range []int{-1, 0, 1, 3, 4} {
			im := frame.NewImage(4, 4)
			if _, err := e.Upscale(im, scale); err == nil {
				t.Errorf("%s: Upscale at ×%d should fail", e.Name(), scale)
			}
			dst := frame.NewImage(4*max(scale, 1), 4*max(scale, 1))
			if err := e.UpscaleInto(dst, im, scale, nil); err == nil {
				t.Errorf("%s: UpscaleInto at ×%d should fail", e.Name(), scale)
			}
		}
	}
	if _, err := n.Upscale(frame.NewImage(0, 0), 2); err == nil {
		t.Error("empty image should fail")
	}
}

func TestEngineNames(t *testing.T) {
	if (BilinearEngine{}).Name() != "bilinear" {
		t.Error("bilinear name")
	}
	if NewFast(FastConfig{}).Name() == "" {
		t.Error("fast name")
	}
	n := NewInterpEDSR(Spec{})
	if n.Name() != "edsr(b16,c64,x2)" {
		t.Errorf("edsr name = %q", n.Name())
	}
}

func TestPhaseWeightsPartitionOfUnity(t *testing.T) {
	for _, k := range []upscale.Kind{upscale.Bilinear, upscale.Bicubic, upscale.Lanczos3} {
		for d := 0; d < 2; d++ {
			w := phaseWeights(k, 2, d, 7)
			sum := float32(0)
			for _, v := range w {
				sum += v
			}
			if !almostEqual(sum, 1, 1e-5) {
				t.Errorf("%v phase %d sums to %f", k, d, sum)
			}
		}
	}
}

func TestBinomialKernel(t *testing.T) {
	k := binomialKernel(3)
	want := []float32{1. / 16, 2. / 16, 1. / 16, 2. / 16, 4. / 16, 2. / 16, 1. / 16, 2. / 16, 1. / 16}
	for i := range want {
		if !almostEqual(k[i], want[i], 1e-6) {
			t.Fatalf("binomial(3) = %v", k)
		}
	}
	var sum float32
	for _, v := range binomialKernel(5) {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-5) {
		t.Errorf("binomial(5) sum = %f", sum)
	}
}

func TestRandomEDSRDense(t *testing.T) {
	n := newRandomEDSR(Spec{Blocks: 1, Channels: 4}, 1)
	zeros := 0
	for _, w := range n.head.Weight {
		if w == 0 {
			zeros++
		}
	}
	if zeros > 0 {
		t.Errorf("random network has %d zero weights in head", zeros)
	}
	// Deterministic per seed.
	m := newRandomEDSR(Spec{Blocks: 1, Channels: 4}, 1)
	for i := range n.head.Weight {
		if n.head.Weight[i] != m.head.Weight[i] {
			t.Fatal("same seed should give same weights")
		}
	}
	// It still runs end to end.
	out, err := n.Upscale(frame.NewImage(8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 16 || out.H != 16 {
		t.Fatal("random network output size wrong")
	}
}

func TestSpecDefaults(t *testing.T) {
	n := NewNetwork(Spec{})
	s := n.spec
	if s.Blocks != 16 || s.Channels != 64 || s.K != 3 || s.UpK != 5 {
		t.Errorf("defaults = %+v", s)
	}
	// Paper model FLOPs at 300×300 input should be in the tens of GMACs.
	fl := n.FLOPs(300, 300)
	if fl < 1e10 || fl > 1e12 {
		t.Errorf("EDSR FLOPs at 300x300 = %d, outside sanity band", fl)
	}
}

func BenchmarkEDSRTinyInference(b *testing.B) {
	n := NewInterpEDSR(Spec{Blocks: 16, Channels: 16})
	im := frame.NewImage(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Upscale(im, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseEDSR32(b *testing.B) {
	// Dense random weights: no zero-weight shortcuts, measures the real
	// per-MAC cost of the pure-Go engine.
	n := newRandomEDSR(Spec{Blocks: 2, Channels: 16}, 7)
	im := frame.NewImage(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Upscale(im, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// The sharpen gain must sit near the PSNR-optimal point of the α sweep on
// game content — this is the calibration the constant sharpenGain encodes.
// The sweep runs the reference loop at each gain on the ×2 Lanczos-3
// upscale, and that upscale alone is "no restoration".
func TestSharpenSweepDefaultNearOptimal(t *testing.T) {
	wl, _ := games.ByID("G3")
	hi := wl.Render(&render.Renderer{}, 20, 256, 144).Color
	lo := mustResize(hi, 128, 72, upscale.Bilinear)
	plain := mustResize(lo, 256, 144, upscale.Lanczos3)
	psnrAt := func(alpha float64) float64 {
		up := plain.Clone()
		sharpenInPlace(up, alpha, nil)
		return testkit.PSNR(hi, up)
	}
	none := testkit.PSNR(hi, plain)
	best, bestA := none, 0.0
	for _, a := range []float64{0.55, 1.3, 2.0, 3.0, 4.5} {
		if p := psnrAt(a); p > best {
			best, bestA = p, a
		}
	}
	// The gain must sit within a dB of the sweep optimum — the clamp
	// flattens the curve, so this bounds how stale the calibration can get.
	def := psnrAt(sharpenGain)
	if def < best-1.0 {
		t.Errorf("α=%v gives %.2f dB, sweep best %.2f dB at α=%.2f — recalibrate the gain", float64(sharpenGain), def, best, bestA)
	}
	// Sharpening must actually help versus none.
	if def <= none {
		t.Error("detail restoration should beat plain interpolation on game content")
	}
}

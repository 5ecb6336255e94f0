package metrics

import (
	"math"
	"math/rand"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/testkit"
)

// addNoise returns a copy of im with uniform noise of amplitude amp added to
// all channels.
func addNoise(im *frame.Image, amp int, seed int64) *frame.Image {
	out := im.Clone()
	rng := rand.New(rand.NewSource(seed))
	add := func(p []uint8) {
		for i := range p {
			v := int(p[i]) + rng.Intn(2*amp+1) - amp
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			p[i] = uint8(v)
		}
	}
	add(out.R)
	add(out.G)
	add(out.B)
	return out
}

func TestPSNRIdentical(t *testing.T) {
	im := testkit.Noise(32, 32, 1)
	p, err := PSNR(im, im.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("identical PSNR = %f, want +Inf", p)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	// Uniform luma difference of d gives PSNR = 20·log10(255/d).
	a := frame.NewImage(16, 16)
	testkit.Fill(a, 100, 100, 100)
	b := frame.NewImage(16, 16)
	testkit.Fill(b, 110, 110, 110)
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 20 * math.Log10(255/10.0)
	if math.Abs(p-want) > 0.1 {
		t.Errorf("PSNR = %f, want %f", p, want)
	}
}

func TestPSNRMonotoneInNoise(t *testing.T) {
	base := testkit.Noise(64, 64, 2)
	p1, _ := PSNR(base, addNoise(base, 3, 5))
	p2, _ := PSNR(base, addNoise(base, 15, 5))
	p3, _ := PSNR(base, addNoise(base, 60, 5))
	if !(p1 > p2 && p2 > p3) {
		t.Errorf("PSNR not monotone: %f, %f, %f", p1, p2, p3)
	}
}

func TestPSNRSizeMismatch(t *testing.T) {
	if _, err := PSNR(testkit.Noise(8, 8, 1), testkit.Noise(8, 9, 1)); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := PSNR(frame.NewImage(0, 0), frame.NewImage(0, 0)); err == nil {
		t.Error("empty images should fail")
	}
}

func TestSSIMBounds(t *testing.T) {
	im := testkit.Noise(64, 64, 4)
	s, err := SSIM(im, im.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("self SSIM = %f, want 1", s)
	}
	inv := im.Clone()
	for i := range inv.R {
		inv.R[i] = 255 - inv.R[i]
		inv.G[i] = 255 - inv.G[i]
		inv.B[i] = 255 - inv.B[i]
	}
	s2, _ := SSIM(im, inv)
	if s2 >= s {
		t.Errorf("inverted SSIM %f should be far below 1", s2)
	}
}

func TestSSIMMonotone(t *testing.T) {
	base := testkit.Noise(64, 64, 6)
	s1, _ := SSIM(base, addNoise(base, 5, 9))
	s2, _ := SSIM(base, addNoise(base, 40, 9))
	if s1 <= s2 {
		t.Errorf("SSIM not monotone: %f vs %f", s1, s2)
	}
}

func TestSSIMValidation(t *testing.T) {
	if _, err := SSIM(testkit.Noise(8, 8, 1), testkit.Noise(16, 16, 1)); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := SSIM(testkit.Noise(4, 4, 1), testkit.Noise(4, 4, 1)); err == nil {
		t.Error("too-small image should fail")
	}
}

func TestLPIPSProxyBounds(t *testing.T) {
	im := testkit.Noise(64, 64, 7)
	d, err := LPIPSProxy(im, im.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self distance = %f, want 0", d)
	}
	other := testkit.Noise(64, 64, 99)
	d2, _ := LPIPSProxy(im, other)
	if d2 <= 0 || d2 > 1 {
		t.Errorf("distance = %f, want in (0, 1]", d2)
	}
}

func TestLPIPSProxyMonotoneInBlur(t *testing.T) {
	// Progressive blur (repeated box filtering) must increase perceptual
	// distance — this mimics the bilinear error accumulation in the SOTA.
	base := testkit.Noise(64, 64, 8)
	blur := func(im *frame.Image, passes int) *frame.Image {
		out := im.Clone()
		for p := 0; p < passes; p++ {
			next := out.Clone()
			for y := 1; y < im.H-1; y++ {
				for x := 1; x < im.W-1; x++ {
					var r, g, b int
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							pr, pg, pb := testkit.At(out, x+dx, y+dy)
							r += int(pr)
							g += int(pg)
							b += int(pb)
						}
					}
					next.Set(x, y, uint8(r/9), uint8(g/9), uint8(b/9))
				}
			}
			out = next
		}
		return out
	}
	d1, _ := LPIPSProxy(base, blur(base, 1))
	d3, _ := LPIPSProxy(base, blur(base, 3))
	d8, _ := LPIPSProxy(base, blur(base, 8))
	if !(d1 < d3 && d3 < d8) {
		t.Errorf("LPIPS proxy not monotone in blur: %f, %f, %f", d1, d3, d8)
	}
}

func TestLPIPSProxyValidation(t *testing.T) {
	if _, err := LPIPSProxy(testkit.Noise(8, 8, 1), testkit.Noise(9, 8, 1)); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := LPIPSProxy(testkit.Noise(2, 2, 1), testkit.Noise(2, 2, 1)); err == nil {
		t.Error("tiny image should fail")
	}
}

func TestLPIPSSmallButValidImage(t *testing.T) {
	// 4x4 hits the minimum-size path with a single pyramid level.
	a := testkit.Noise(4, 4, 11)
	b := testkit.Noise(4, 4, 12)
	d, err := LPIPSProxy(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 1 {
		t.Errorf("distance = %f out of range", d)
	}
}

func TestDownsample2(t *testing.T) {
	l := []float64{1, 3, 5, 7}
	out := []float64{-99} // dirty destination must be overwritten
	downsample2Into(out, l, 2, 2)
	if out[0] != 4 {
		t.Errorf("downsample = %v, want [4]", out)
	}
}

func BenchmarkPSNR720p(b *testing.B) {
	x := testkit.Noise(1280, 720, 1)
	y := testkit.Noise(1280, 720, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PSNR(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPIPSProxy360p(b *testing.B) {
	x := testkit.Noise(640, 360, 1)
	y := testkit.Noise(640, 360, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LPIPSProxy(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTemporalStability(t *testing.T) {
	flat := []float64{30, 30, 30, 30}
	s, err := TemporalStability(flat)
	if err != nil || s != 0 {
		t.Errorf("flat series stability = %f, %v", s, err)
	}
	saw := []float64{36, 33, 30, 36}
	s2, _ := TemporalStability(saw)
	if s2 != 4 {
		t.Errorf("sawtooth stability = %f, want 4", s2)
	}
	if _, err := TemporalStability([]float64{1}); err == nil {
		t.Error("single sample should fail")
	}
}

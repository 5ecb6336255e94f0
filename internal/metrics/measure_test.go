package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/testkit"
	"gamestreamsr/internal/upscale"
)

// The reference: each metric as three separate calls that convert both
// images to luma serially, and an LPIPS proxy that writes its four feature
// planes per image and level before reducing each channel on its own. The
// shipped Measure and the single-metric functions must equal it bit for
// bit, so every reduction here keeps the shipped chunk grid (it depends on
// the element count alone) and addition order.

func refLuma(im *frame.Image) []float64 {
	out := make([]float64, im.W*im.H)
	i := 0
	for y := 0; y < im.H; y++ {
		row := y * im.Stride
		for x := 0; x < im.W; x++ {
			p := row + x
			out[i] = 0.299*float64(im.R[p]) + 0.587*float64(im.G[p]) + 0.114*float64(im.B[p])
			i++
		}
	}
	return out
}

func refMSE(a, b *frame.Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrSizeMismatch, a.W, a.H, b.W, b.H)
	}
	if a.W == 0 || a.H == 0 {
		return 0, errors.New("metrics: empty image")
	}
	la, lb := refLuma(a), refLuma(b)
	sum := parallel.Sum(len(la), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			d := la[i] - lb[i]
			s += d * d
		}
		return s
	})
	return sum / float64(len(la)), nil
}

func refPSNR(a, b *frame.Image) (float64, error) {
	mse, err := refMSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

func refSSIM(a, b *frame.Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrSizeMismatch, a.W, a.H, b.W, b.H)
	}
	const win = 8
	if a.W < win || a.H < win {
		return 0, fmt.Errorf("metrics: image %dx%d smaller than SSIM window %d", a.W, a.H, win)
	}
	la, lb := refLuma(a), refLuma(b)
	const (
		c1 = 6.5025  // (0.01*255)^2
		c2 = 58.5225 // (0.03*255)^2
	)
	winRows := a.H / win
	winCols := a.W / win
	total := parallel.Sum(winRows, func(r0, r1 int) float64 {
		var band float64
		for r := r0; r < r1; r++ {
			y := r * win
			for x := 0; x+win <= a.W; x += win {
				var ma, mb float64
				for j := 0; j < win; j++ {
					row := (y + j) * a.W
					for i := 0; i < win; i++ {
						ma += la[row+x+i]
						mb += lb[row+x+i]
					}
				}
				n := float64(win * win)
				ma /= n
				mb /= n
				var va, vb, cov float64
				for j := 0; j < win; j++ {
					row := (y + j) * a.W
					for i := 0; i < win; i++ {
						da := la[row+x+i] - ma
						db := lb[row+x+i] - mb
						va += da * da
						vb += db * db
						cov += da * db
					}
				}
				va /= n - 1
				vb /= n - 1
				cov /= n - 1
				band += ((2*ma*mb + c1) * (2*cov + c2)) / ((ma*ma + mb*mb + c1) * (va + vb + c2))
			}
		}
		return band
	})
	return total / float64(winRows*winCols), nil
}

func refLPIPSProxy(a, b *frame.Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrSizeMismatch, a.W, a.H, b.W, b.H)
	}
	if a.W < 4 || a.H < 4 {
		return 0, fmt.Errorf("metrics: image %dx%d too small for perceptual metric", a.W, a.H)
	}
	la, lb := refLuma(a), refLuma(b)
	w, h := a.W, a.H
	var dist float64
	levels := 0
	var fa, fb [4][]float64
	for i := range fa {
		fa[i] = make([]float64, w*h)
		fb[i] = make([]float64, w*h)
	}
	for level := 0; level < 3 && w >= 4 && h >= 4; level++ {
		refFeatureChannelsInto(&fa, la, w, h)
		refFeatureChannelsInto(&fb, lb, w, h)
		for ch := range fa {
			dist += refNormalisedDistance(fa[ch][:w*h], fb[ch][:w*h])
		}
		levels++
		nla, nlb := make([]float64, w/2*(h/2)), make([]float64, w/2*(h/2))
		downsample2Into(nla, la, w, h)
		downsample2Into(nlb, lb, w, h)
		la, lb = nla, nlb
		w, h = w/2, h/2
	}
	d := dist / float64(levels*4)
	return 1 - math.Exp(-3*d), nil
}

func refFeatureChannelsInto(out *[4][]float64, l []float64, w, h int) {
	parallel.For(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				c := l[i]
				left, right := c, c
				up, down := c, c
				if x > 0 {
					left = l[i-1]
				}
				if x < w-1 {
					right = l[i+1]
				}
				if y > 0 {
					up = l[i-w]
				}
				if y < h-1 {
					down = l[i+w]
				}
				out[0][i] = c
				out[1][i] = math.Abs(right - left)
				out[2][i] = math.Abs(down - up)
				out[3][i] = math.Abs(left + right + up + down - 4*c)
			}
		}
	})
}

func refNormalisedDistance(a, b []float64) float64 {
	var accBuf [2]float64
	acc := parallel.SumVecInto(accBuf[:], len(a), 2, func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += math.Abs(a[i] - b[i])
			acc[1] += math.Abs(a[i]) + math.Abs(b[i])
		}
	})
	diff, energy := acc[0], acc[1]
	if energy < 1e-9 {
		return 0
	}
	return diff / (energy/2 + 1e-9)
}

// renderedG3 returns a G3 frame rendered at w×h and the bilinear upscale of
// the same frame rendered at half size: a ground truth and the kind of image
// the pipelines measure against it.
func renderedG3(tb testing.TB, w, h int) (gt, up *frame.Image) {
	tb.Helper()
	wl, err := games.ByID("G3")
	if err != nil {
		tb.Fatal(err)
	}
	rd := &render.Renderer{}
	gt = wl.Render(rd, 30, w, h).Color
	lr := wl.Render(rd, 30, max(w/2, 1), max(h/2, 1)).Color
	up, err = upscale.Resize(lr, w, h, upscale.Bilinear)
	if err != nil {
		tb.Fatal(err)
	}
	return gt, up
}

func flat(w, h int, v uint8) *frame.Image {
	im := frame.NewImage(w, h)
	testkit.Fill(im, v, v/2+40, 255-v)
	return im
}

func binary(w, h int, seed int64) *frame.Image {
	im := frame.NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range [][]uint8{im.R, im.G, im.B} {
		for i := range p {
			p[i] = uint8(255 * rng.Intn(2))
		}
	}
	return im
}

type pairCase struct {
	name string
	a, b *frame.Image
}

// exactnessCases covers every image kind at every size, a strided view, and
// identical pairs (PSNR +Inf, LPIPS 0, flat images' zero-energy channels).
func exactnessCases(tb testing.TB) []pairCase {
	var cases []pairCase
	var gt, up *frame.Image
	for _, sz := range [][2]int{{8, 8}, {9, 8}, {17, 9}, {63, 35}, {640, 360}} {
		w, h := sz[0], sz[1]
		gt, up = renderedG3(tb, w, h)
		noise := testkit.Noise(w, h, 21)
		flatA := flat(w, h, 90)
		for _, c := range []pairCase{
			{"noise", noise, testkit.Noise(w, h, 22)},
			{"flat", flatA, flat(w, h, 97)},
			{"binary", binary(w, h, 23), binary(w, h, 24)},
			{"G3", gt, up},
			{"identical-noise", noise, noise.Clone()},
			{"identical-flat", flatA, flatA.Clone()},
			{"identical-G3", gt, gt.Clone()},
		} {
			c.name = fmt.Sprintf("%s/%dx%d", c.name, w, h)
			cases = append(cases, c)
		}
	}
	cases = append(cases, pairCase{"G3-strided/63x35", testkit.MustSub(gt, 101, 57, 63, 35), testkit.MustSub(up, 101, 57, 63, 35)})
	return cases
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestMeasureMatchesReference holds Measure and each single-metric function
// to the three-call, feature-plane reference with ==, not a tolerance.
// That the reductions do not depend on the number of workers is
// parallel's TestReductionBitsIdenticalAcrossClientsAndGOMAXPROCS.
func TestMeasureMatchesReference(t *testing.T) {
	for _, tc := range exactnessCases(t) {
		wantP, err := refPSNR(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		wantS, _ := refSSIM(tc.a, tc.b)
		wantL, _ := refLPIPSProxy(tc.a, tc.b)
		got, err := Measure(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameBits(got.PSNR, wantP) || !sameBits(got.SSIM, wantS) || !sameBits(got.LPIPS, wantL) {
			t.Errorf("%s: Measure = %+v, reference = {%v %v %v}", tc.name, got, wantP, wantS, wantL)
		}
		p, _ := PSNR(tc.a, tc.b)
		s, _ := SSIM(tc.a, tc.b)
		l, _ := LPIPSProxy(tc.a, tc.b)
		if !sameBits(p, wantP) || !sameBits(s, wantS) || !sameBits(l, wantL) {
			t.Errorf("%s: PSNR/SSIM/LPIPSProxy = %v %v %v, reference %v %v %v", tc.name, p, s, l, wantP, wantS, wantL)
		}
		if tc.a.Equal(tc.b) && (!math.IsInf(p, 1) || l != 0) {
			t.Errorf("%s: identical images score PSNR %v, LPIPS %v", tc.name, p, l)
		}
	}
}

// TestMeasureValidation: Measure refuses what the three-call composition
// refused, with the first failing metric's error.
func TestMeasureValidation(t *testing.T) {
	for _, tc := range []struct {
		a, b *frame.Image
		want string
	}{
		{testkit.Noise(8, 8, 1), testkit.Noise(8, 9, 1), ErrSizeMismatch.Error()},
		{frame.NewImage(0, 0), frame.NewImage(0, 0), "metrics: empty image"},
		{testkit.Noise(7, 9, 1), testkit.Noise(7, 9, 2), "metrics: image 7x9 smaller than SSIM window 8"},
		{testkit.Noise(4, 4, 1), testkit.Noise(4, 4, 2), "metrics: image 4x4 smaller than SSIM window 8"},
	} {
		_, err := Measure(tc.a, tc.b)
		var wantErr error
		if _, wantErr = refPSNR(tc.a, tc.b); wantErr == nil {
			_, wantErr = refSSIM(tc.a, tc.b)
		}
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Measure(%dx%d, %dx%d) error %v, reference %v, want %q", tc.a.W, tc.a.H, tc.b.W, tc.b.H, err, wantErr, tc.want)
		}
	}
	if _, err := Measure(testkit.Noise(8, 8, 1), testkit.Noise(9, 8, 1)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch error %v does not wrap ErrSizeMismatch", err)
	}
}

// TestMeasureFootprint is the allocation and footprint gate at 640×360: a
// steady-state Measure allocates only the parallel layer's per-pass closures,
// and a cold one checks out of the metrics pool no more than the two luma
// pyramids (levels of 640×360, 320×180 and 160×90, each in its power-of-two
// size class), so per-pixel feature planes cannot come back unnoticed.
func TestMeasureFootprint(t *testing.T) {
	gt, up := renderedG3(t, 640, 360)
	if _, err := Measure(gt, up); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Measure(gt, up); err != nil {
			t.Fatal(err)
		}
	})
	// 21 today: one closure and one reduction body per parallel pass. The
	// three-call composition with feature planes made 42.
	t.Logf("steady-state Measure at 640x360: %.1f allocs/run", allocs)
	if allocs > 24 {
		t.Errorf("steady-state Measure allocates %.1f objects/run, want <= 24", allocs)
	}

	old := scratch
	scratch = bufpool.New()
	defer func() { scratch = old }()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Measure(gt, up); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const pyramids = 2 * 8 * (1<<18 + 1<<16 + 1<<14) // float64 planes of 230 400, 57 600 and 14 400 elements
	const slack = 64 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold Measure at 640x360: %d bytes allocated, luma pyramids %d", got, pyramids)
	if got > pyramids+slack {
		t.Errorf("cold Measure allocates %d bytes, more than the two luma pyramids (%d) + %d", got, pyramids, slack)
	}
}

// BenchmarkMeasure360p is the engine's measure stage on real traffic: a
// rendered G3 ground truth against its bilinear upscale.
func BenchmarkMeasure360p(b *testing.B) {
	gt, up := renderedG3(b, 640, 360)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(gt, up); err != nil {
			b.Fatal(err)
		}
	}
}

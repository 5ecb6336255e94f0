// Package metrics implements the video-quality metrics of the paper's
// evaluation: PSNR (the objective pixel-wise metric of Fig. 13/14a), SSIM
// (used for cross-checks), and a perceptual metric standing in for LPIPS
// (Fig. 14b).
//
// LPIPS proper compares deep features from a pretrained CNN. Shipping
// pretrained weights is impossible offline, so LPIPSProxy computes
// normalised distances between multi-scale filter-bank responses
// (luma, horizontal/vertical derivative and Laplacian channels across a
// Gaussian pyramid). Like LPIPS it is a full-reference distance in [0, 1]
// where lower means more perceptually similar, and it is monotone in the
// structural/texture damage that bilinear error accumulation causes — the
// property the paper's Fig. 14b argument rests on. The substitution is
// recorded in DESIGN.md.
//
// Every metric works on the two images' luma planes. Measure converts each
// image once and computes all three scores from that pair; PSNR, SSIM and
// LPIPSProxy run one metric on the same plane functions.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// scratch recycles the luma planes and pyramid levels of the metrics across
// calls. Package-level because metric functions are free functions; the pool
// is concurrency-safe, and all checkouts are returned before the metric
// returns, so steady state pins only one luma pyramid pair per concurrent
// caller.
var scratch = bufpool.New()

// ErrSizeMismatch is returned when the two images differ in geometry.
var ErrSizeMismatch = errors.New("metrics: image sizes differ")

// ssimWin is SSIM's window side, and so the smallest image Measure accepts.
const ssimWin = 8

// Scores are the quality metrics of one image against its reference.
type Scores struct {
	PSNR, SSIM, LPIPS float64
}

// Measure returns PSNR, SSIM and the LPIPS proxy of b against a, computed
// from one luma plane per image converted row-parallel. Each score is
// bit-identical to the corresponding plain function's at any worker count:
// every reduction's chunk grid depends only on the plane size.
func Measure(a, b *frame.Image) (Scores, error) {
	if err := checkMSE(a, b); err != nil {
		return Scores{}, err
	}
	if err := checkSSIM(a, b); err != nil {
		return Scores{}, err
	}
	la, lb := lumaPair(a, b)
	defer scratch.PutFloat64s(la)
	defer scratch.PutFloat64s(lb)
	return Scores{
		PSNR:  psnr(la, lb, a.W, a.H),
		SSIM:  ssim(la, lb, a.W, a.H),
		LPIPS: lpips(la, lb, a.W, a.H),
	}, nil
}

// lumaPair converts both images to pooled luma planes, row-parallel. The
// caller returns both planes to scratch.
func lumaPair(a, b *frame.Image) (la, lb []float64) {
	la, lb = scratch.Float64s(a.W*a.H), scratch.Float64s(b.W*b.H)
	parallel.For(a.H, func(y0, y1 int) {
		a.LumaRowsInto(la, y0, y1)
		b.LumaRowsInto(lb, y0, y1)
	})
	return la, lb
}

// plain runs one plane metric after its own size check: the body of the
// single-metric functions.
func plain(a, b *frame.Image, check func(a, b *frame.Image) error,
	metric func(la, lb []float64, w, h int) float64) (float64, error) {
	if err := check(a, b); err != nil {
		return 0, err
	}
	la, lb := lumaPair(a, b)
	defer scratch.PutFloat64s(la)
	defer scratch.PutFloat64s(lb)
	return metric(la, lb, a.W, a.H), nil
}

func sameSize(a, b *frame.Image) error {
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrSizeMismatch, a.W, a.H, b.W, b.H)
	}
	return nil
}

func checkMSE(a, b *frame.Image) error {
	if err := sameSize(a, b); err != nil {
		return err
	}
	if a.W == 0 || a.H == 0 {
		return errors.New("metrics: empty image")
	}
	return nil
}

func checkSSIM(a, b *frame.Image) error {
	if err := sameSize(a, b); err != nil {
		return err
	}
	if a.W < ssimWin || a.H < ssimWin {
		return fmt.Errorf("metrics: image %dx%d smaller than SSIM window %d", a.W, a.H, ssimWin)
	}
	return nil
}

func checkLPIPS(a, b *frame.Image) error {
	if err := sameSize(a, b); err != nil {
		return err
	}
	if a.W < 4 || a.H < 4 {
		return fmt.Errorf("metrics: image %dx%d too small for perceptual metric", a.W, a.H)
	}
	return nil
}

// PSNR returns the peak signal-to-noise ratio in dB between the luma planes
// of a and b. Identical images return +Inf.
func PSNR(a, b *frame.Image) (float64, error) {
	return plain(a, b, checkMSE, psnr)
}

// mse is the mean squared difference of two luma planes.
func mse(la, lb []float64) float64 {
	sum := parallel.Sum(len(la), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			d := la[i] - lb[i]
			s += d * d
		}
		return s
	})
	return sum / float64(len(la))
}

func psnr(la, lb []float64, _, _ int) float64 {
	m := mse(la, lb)
	if m == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/m)
}

// SSIM returns the mean structural similarity index between the luma planes
// of a and b, computed over 8×8 windows with the standard constants.
func SSIM(a, b *frame.Image) (float64, error) {
	return plain(a, b, checkSSIM, ssim)
}

// ssim is the mean SSIM over the whole 8×8 windows of two w×h luma planes.
func ssim(la, lb []float64, w, h int) float64 {
	const (
		win = ssimWin
		c1  = 6.5025  // (0.01*255)^2
		c2  = 58.5225 // (0.03*255)^2
	)
	winRows := h / win
	winCols := w / win
	// One parallel band per row of windows; each window is self-contained.
	total := parallel.Sum(winRows, func(r0, r1 int) float64 {
		var band float64
		for r := r0; r < r1; r++ {
			y := r * win
			for x := 0; x+win <= w; x += win {
				var ma, mb float64
				for j := 0; j < win; j++ {
					row := (y + j) * w
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
					row := (y + j) * w
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
	return total / float64(winRows*winCols)
}

// TemporalStability measures quality flicker over a sequence: the mean
// absolute frame-to-frame change of a per-frame quality series (e.g. PSNR
// in dB). Viewers are sensitive to quality *oscillation* as much as to
// level — the sawtooth the SOTA produces across a GOP (Fig. 13) is visible
// as pumping even when the mean PSNR looks acceptable. Lower is steadier.
func TemporalStability(series []float64) (float64, error) {
	if len(series) < 2 {
		return 0, errors.New("metrics: stability needs at least two samples")
	}
	var sum float64
	for i := 1; i < len(series); i++ {
		sum += math.Abs(series[i] - series[i-1])
	}
	return sum / float64(len(series)-1), nil
}

// LPIPSProxy returns a perceptual distance in [0, 1]; 0 means perceptually
// identical. See the package comment for how it relates to LPIPS.
func LPIPSProxy(a, b *frame.Image) (float64, error) {
	return plain(a, b, checkLPIPS, lpips)
}

// lpips is the perceptual distance of two w×h luma planes (w, h >= 4),
// which it reads but does not return to the pool. Three pyramid levels,
// four feature channels per level; a level's channel sums come from one
// fused pass that computes the features of both planes at each index and
// stores none of them.
func lpips(la, lb []float64, w, h int) float64 {
	var accBuf [8]float64
	var dist float64
	levels := 0
	pa, pb := la, lb
	for level := 0; ; level++ {
		acc := parallel.SumVecInto(accBuf[:], w*h, 8, func(lo, hi int, acc []float64) {
			featureSums(acc, pa, pb, w, h, lo, hi)
		})
		for ch := 0; ch < 4; ch++ {
			dist += channelDistance(acc[2*ch], acc[2*ch+1])
		}
		levels++
		if level == 2 || w/2 < 4 || h/2 < 4 {
			break
		}
		na, nb := scratch.Float64s(w/2*(h/2)), scratch.Float64s(w/2*(h/2))
		downsample2Into(na, pa, w, h)
		downsample2Into(nb, pb, w, h)
		if level > 0 {
			scratch.PutFloat64s(pa)
			scratch.PutFloat64s(pb)
		}
		pa, pb = na, nb
		w, h = w/2, h/2
	}
	if levels > 1 {
		scratch.PutFloat64s(pa)
		scratch.PutFloat64s(pb)
	}
	// Average over channels and levels; squash into [0, 1].
	d := dist / float64(levels*4)
	return 1 - math.Exp(-3*d)
}

// featureSums adds, for the plane indices [lo, hi) in order, each feature
// channel's |fa−fb| into acc[2·ch] and |fa|+|fb| into acc[2·ch+1], where fa
// and fb are the channel's values in la and lb.
func featureSums(acc, la, lb []float64, w, h, lo, hi int) {
	s := [8]float64(acc)
	y, x := lo/w, lo%w
	for i := lo; i < hi; i++ {
		a0, a1, a2, a3 := features(la, i, x, y, w, h)
		b0, b1, b2, b3 := features(lb, i, x, y, w, h)
		s[0] += math.Abs(a0 - b0)
		s[1] += math.Abs(a0) + math.Abs(b0)
		s[2] += math.Abs(a1 - b1)
		s[3] += math.Abs(a1) + math.Abs(b1)
		s[4] += math.Abs(a2 - b2)
		s[5] += math.Abs(a2) + math.Abs(b2)
		s[6] += math.Abs(a3 - b3)
		s[7] += math.Abs(a3) + math.Abs(b3)
		if x++; x == w {
			x, y = 0, y+1
		}
	}
	copy(acc, s[:])
}

// features returns the four feature values of plane l at index i = y·w+x:
// local contrast, |∂x|, |∂y| and |Laplacian|, with edges replicated.
func features(l []float64, i, x, y, w, h int) (f0, f1, f2, f3 float64) {
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
	return c, math.Abs(right - left), math.Abs(down - up), math.Abs(left + right + up + down - 4*c)
}

// channelDistance is one channel's mean absolute difference normalised by
// its pooled energy, as LPIPS normalises channel activations.
func channelDistance(diff, energy float64) float64 {
	if energy < 1e-9 {
		return 0
	}
	return diff / (energy/2 + 1e-9)
}

// downsample2Into halves a luma plane with 2×2 box averaging, writing the
// (w/2)·(h/2) result into out (fully overwritten; dirty pooled is fine).
func downsample2Into(out, l []float64, w, h int) {
	nw, nh := w/2, h/2
	parallel.For(nh, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < nw; x++ {
				i := 2*y*w + 2*x
				out[y*nw+x] = (l[i] + l[i+1] + l[i+w] + l[i+w+1]) / 4
			}
		}
	})
}

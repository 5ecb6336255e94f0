// Package upscale implements the traditional (non-DNN) frame upscalers the
// paper uses and compares against: nearest-neighbour, bilinear (the client
// GPU's GL_LINEAR path, §IV-C), bicubic (Catmull-Rom) and Lanczos-3 (the
// quality-preserving kernels the §VI decoder prototype proposes for RoI
// regions). It also provides Merge, which composites a DNN-upscaled RoI back
// into a bilinearly upscaled frame — step ❾ of Fig. 6.
//
// All upscalers are separable polyphase resamplers over the planar RGB
// images of internal/frame and are exact on the class of images their kernel
// reproduces (constants for all, linear ramps for bilinear and up), which the
// property tests exploit.
package upscale

import (
	"fmt"
	"math"
	"sync"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// Kind selects an interpolation kernel.
type Kind int

const (
	// Nearest is nearest-neighbour sampling.
	Nearest Kind = iota
	// Bilinear is the 2-tap triangle kernel (GL_LINEAR).
	Bilinear
	// Bicubic is the Catmull-Rom 4-tap cubic.
	Bicubic
	// Lanczos3 is the 6-tap windowed-sinc kernel.
	Lanczos3
	// Area is the box (pixel-area) kernel — the correct anti-aliasing
	// filter for integer downscaling (how a GPU resolves supersamples).
	Area
)

func (k Kind) String() string {
	switch k {
	case Nearest:
		return "nearest"
	case Bilinear:
		return "bilinear"
	case Bicubic:
		return "bicubic"
	case Lanczos3:
		return "lanczos3"
	case Area:
		return "area"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// support returns the kernel radius in source pixels.
func (k Kind) support() float64 {
	switch k {
	case Nearest:
		return 0.5
	case Bilinear:
		return 1
	case Bicubic:
		return 2
	case Lanczos3:
		return 3
	case Area:
		return 0.5
	default:
		return 1
	}
}

// weight evaluates the kernel at distance x.
func (k Kind) weight(x float64) float64 {
	x = math.Abs(x)
	switch k {
	case Nearest:
		if x <= 0.5 {
			return 1
		}
		return 0
	case Bilinear:
		if x < 1 {
			return 1 - x
		}
		return 0
	case Bicubic:
		// Catmull-Rom (a = −0.5).
		const a = -0.5
		switch {
		case x < 1:
			return (a+2)*x*x*x - (a+3)*x*x + 1
		case x < 2:
			return a*x*x*x - 5*a*x*x + 8*a*x - 4*a
		default:
			return 0
		}
	case Lanczos3:
		if x < 1e-9 {
			return 1
		}
		if x >= 3 {
			return 0
		}
		px := math.Pi * x
		return 3 * math.Sin(px) * math.Sin(px/3) / (px * px)
	case Area:
		// Box kernel; combined with the minification stretch in
		// buildWeights this averages exactly the covered source pixels.
		if x <= 0.5 {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Resize resamples src to dstW×dstH with kernel k. Upscaling and
// downscaling are both supported; when downscaling, the kernel is stretched
// by the scale factor (standard anti-aliased polyphase resampling).
func Resize(src *frame.Image, dstW, dstH int, k Kind) (*frame.Image, error) {
	if dstW <= 0 || dstH <= 0 {
		return nil, fmt.Errorf("upscale: invalid target size %dx%d", dstW, dstH)
	}
	dst := frame.NewImagePacked(dstW, dstH)
	if err := ResizeInto(dst, src, k, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// ResizeInto resamples src into dst (whose W×H select the target size) with
// kernel k. Every pixel of dst is overwritten, so dst may be a dirty pooled
// image; dst must not alias src. The optional pool supplies the intermediate
// buffer of the separable pass (nil allocates it). Bilinear at exactly ×2 —
// the paper's factor, and what every frame of the client pays on every
// pixel — takes the integer kernel of bilinear2x.go, and Lanczos3 at ×2 the
// RoI's six-tap kernel of lanczos2x.go; both are byte-identical to the
// generic resampler.
func ResizeInto(dst, src *frame.Image, k Kind, pool *bufpool.Pool) error {
	if src.W <= 0 || src.H <= 0 {
		return fmt.Errorf("upscale: empty source image %dx%d", src.W, src.H)
	}
	if dst.W <= 0 || dst.H <= 0 {
		return fmt.Errorf("upscale: invalid target size %dx%d", dst.W, dst.H)
	}
	if dst.W == src.W && dst.H == src.H {
		dst.CopyFrom(src)
		return nil
	}
	if dst.W == 2*src.W && dst.H == 2*src.H {
		switch k {
		case Bilinear:
			bilinear2x(dst, src)
			return nil
		case Lanczos3:
			lanczos2x(dst, src)
			return nil
		}
	}
	resizeGeneric(dst, src, k, pool)
	return nil
}

// resizeGeneric is the separable polyphase resampler for any kernel and
// ratio: horizontal pass into a byte intermediate, then vertical pass. It is
// also the reference the ×2 fast paths are tested against. Each product is
// rounded by an explicit conversion before it is added, which forbids the
// compiler a fused multiply-add there (Go may fuse on arm64; on amd64 it
// does not), so the fast paths' sums are its sums on every GOARCH.
func resizeGeneric(dst, src *frame.Image, k Kind, pool *bufpool.Pool) {
	hw := cachedWeights(src.W, dst.W, k)
	vw := cachedWeights(src.H, dst.H, k)
	mid := pool.Image(dst.W, src.H)
	resampleRows(src, mid, hw)
	resampleCols(mid, dst, vw)
	pool.PutImage(mid)
}

// tapSet holds the contributing source taps for one destination coordinate.
type tapSet struct {
	first   int
	weights []float64
}

// weightsKey identifies one polyphase filter bank. The pipeline resamples
// the same few geometries every frame, so banks are computed once and
// shared; tapSets are immutable after construction, making the cached
// slices safe to read concurrently.
type weightsKey struct {
	srcN, dstN int
	k          Kind
}

var (
	weightsMu    sync.Mutex
	weightsCache = map[weightsKey][]tapSet{}
)

// cachedWeights returns the (shared, read-only) filter bank for the mapping,
// building and memoising it on first use.
func cachedWeights(srcN, dstN int, k Kind) []tapSet {
	key := weightsKey{srcN: srcN, dstN: dstN, k: k}
	weightsMu.Lock()
	ts, ok := weightsCache[key]
	if !ok {
		// Built under the lock: duplicate work on a cold key is rarer than
		// the contention is cheap, and it keeps a single canonical bank.
		ts = buildWeights(srcN, dstN, k)
		weightsCache[key] = ts
	}
	weightsMu.Unlock()
	return ts
}

// buildWeights computes the polyphase filter bank mapping srcN samples onto
// dstN samples with kernel k, using pixel-center alignment.
func buildWeights(srcN, dstN int, k Kind) []tapSet {
	scale := float64(srcN) / float64(dstN)
	filterScale := 1.0
	if scale > 1 {
		filterScale = scale // stretch kernel when minifying
	}
	support := k.support() * filterScale
	out := make([]tapSet, dstN)
	for d := 0; d < dstN; d++ {
		center := (float64(d)+0.5)*scale - 0.5
		first := int(math.Ceil(center - support))
		last := int(math.Floor(center + support))
		if first < 0 {
			first = 0
		}
		if last > srcN-1 {
			last = srcN - 1
		}
		if last < first {
			// Degenerate tiny support: fall back to the nearest sample.
			first = clampInt(int(center+0.5), 0, srcN-1)
			last = first
		}
		ws := make([]float64, last-first+1)
		sum := 0.0
		for i := first; i <= last; i++ {
			w := k.weight((float64(i) - center) / filterScale)
			ws[i-first] = w
			sum += w
		}
		if sum != 0 {
			inv := 1 / sum
			for i := range ws {
				ws[i] *= inv
			}
		} else {
			// All taps fell on kernel zeros; use the nearest sample.
			for i := range ws {
				ws[i] = 0
			}
			n := clampInt(int(center+0.5), first, last)
			ws[n-first] = 1
		}
		out[d] = tapSet{first: first, weights: ws}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func resampleRows(src, dst *frame.Image, taps []tapSet) {
	// Destination rows are disjoint, so row bands parallelise safely.
	parallel.For(src.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srow := y * src.Stride
			drow := y * dst.Stride
			for x := 0; x < dst.W; x++ {
				t := &taps[x]
				var r, g, b float64
				for i, w := range t.weights {
					p := srow + t.first + i
					r += float64(w * float64(src.R[p]))
					g += float64(w * float64(src.G[p]))
					b += float64(w * float64(src.B[p]))
				}
				d := drow + x
				dst.R[d] = clampByte(r)
				dst.G[d] = clampByte(g)
				dst.B[d] = clampByte(b)
			}
		}
	})
}

// colScratch holds the per-worker row accumulators of resampleCols, reused
// across chunks, calls and frames (the buffers grow to the largest row seen).
var colScratch = parallel.NewScratch(func() *[]float64 { return new([]float64) })

func resampleCols(src, dst *frame.Image, taps []tapSet) {
	parallel.ForWith(dst.H, colScratch, func(y0, y1 int, sp *[]float64) {
		// Tap-outer accumulation: each contributing source row is streamed
		// sequentially into a row accumulator, which is cache-friendlier than
		// striding down columns. Per destination pixel the additions still
		// happen in tap order, so results are bit-identical to the
		// pixel-inner form.
		acc := *sp
		if need := 3 * dst.W; cap(acc) < need {
			acc = make([]float64, need)
			*sp = acc
		} else {
			acc = acc[:need]
		}
		ra := acc[0:dst.W:dst.W]
		ga := acc[dst.W : 2*dst.W : 2*dst.W]
		ba := acc[2*dst.W : 3*dst.W : 3*dst.W]
		for y := y0; y < y1; y++ {
			t := &taps[y]
			clear(ra)
			clear(ga)
			clear(ba)
			for i, w := range t.weights {
				srow := (t.first + i) * src.Stride
				for x := 0; x < dst.W; x++ {
					p := srow + x
					ra[x] += float64(w * float64(src.R[p]))
					ga[x] += float64(w * float64(src.G[p]))
					ba[x] += float64(w * float64(src.B[p]))
				}
			}
			drow := y * dst.Stride
			for x := 0; x < dst.W; x++ {
				d := drow + x
				dst.R[d] = clampByte(ra[x])
				dst.G[d] = clampByte(ga[x])
				dst.B[d] = clampByte(ba[x])
			}
		}
	})
}

func clampByte(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Merge composites the upscaled RoI into the upscaled full frame at the RoI
// coordinates scaled by the upscale factor — step ❾ of the paper's Fig. 6.
// base is the bilinearly upscaled full frame (modified in place), roiHR the
// DNN-upscaled RoI patch, roiLR the RoI rectangle in low-resolution
// coordinates, and scale the upscale factor.
func Merge(base *frame.Image, roiHR *frame.Image, roiLR frame.Rect, scale int) error {
	if scale <= 0 {
		return fmt.Errorf("upscale: invalid scale %d", scale)
	}
	hr := roiLR.Scale(scale)
	if hr.W != roiHR.W || hr.H != roiHR.H {
		return fmt.Errorf("upscale: RoI patch is %dx%d but scaled rect is %dx%d", roiHR.W, roiHR.H, hr.W, hr.H)
	}
	if !hr.In(base.W, base.H) {
		return fmt.Errorf("upscale: scaled RoI %v outside %dx%d frame", hr, base.W, base.H)
	}
	dst, err := base.SubImage(hr.X, hr.Y, hr.W, hr.H)
	if err != nil {
		return err
	}
	dst.CopyFrom(roiHR)
	return nil
}

// ResizePlaneInto resamples a single float64 plane (e.g. a residual plane or
// a motion-vector component field) — the operation NEMO applies to
// non-reference frame data (§II-A of the paper, our §nemo baseline). dst
// must have length dstW*dstH and is fully overwritten (a dirty pooled buffer
// is fine; dst must not alias src). The optional pool supplies the
// intermediate buffer.
func ResizePlaneInto(dst, src []float64, srcW, srcH, dstW, dstH int, k Kind, pool *bufpool.Pool) error {
	if len(src) != srcW*srcH {
		return fmt.Errorf("upscale: plane length %d != %dx%d", len(src), srcW, srcH)
	}
	if srcW <= 0 || srcH <= 0 || dstW <= 0 || dstH <= 0 {
		return fmt.Errorf("upscale: invalid plane resample %dx%d -> %dx%d", srcW, srcH, dstW, dstH)
	}
	if len(dst) != dstW*dstH {
		return fmt.Errorf("upscale: destination length %d != %dx%d", len(dst), dstW, dstH)
	}
	hw := cachedWeights(srcW, dstW, k)
	vw := cachedWeights(srcH, dstH, k)
	mid := pool.Float64s(dstW * srcH)
	parallel.For(srcH, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < dstW; x++ {
				t := &hw[x]
				var v float64
				for i, w := range t.weights {
					v += w * src[y*srcW+t.first+i]
				}
				mid[y*dstW+x] = v
			}
		}
	})
	parallel.For(dstH, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			t := &vw[y]
			for x := 0; x < dstW; x++ {
				var v float64
				for i, w := range t.weights {
					v += w * mid[(t.first+i)*dstW+x]
				}
				dst[y*dstW+x] = v
			}
		}
	})
	pool.PutFloat64s(mid)
	return nil
}

package upscale

import (
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// The ×2 Lanczos-3 path: the RoI resampler of the client's SR call.
//
// With pixel-centre alignment destination sample 2i sits at source
// coordinate i−¼ and 2i+1 at i+¼, so away from the edges the polyphase bank
// is two fixed six-tap phases: even outputs read source pixels i−3 … i+2,
// odd ones i−2 … i+3. The taps' offsets from the centre are exact in
// float64, so buildWeights gives every unclipped tap set of a parity the
// same six weights (TestLanczos2xPhasesAreTheBank holds that). The path
// computes what resizeGeneric computes — each product and sum the same
// float64 operation in the same tap order, the horizontal result rounded to
// a byte before the vertical pass reads it — but with no W·2×H byte
// intermediate and no per-tap loop: a worker converts each source row to
// float64 once, runs the two phases across it into a ring of float rows
// (holding the rounded bytes exactly), and takes each output row down six of
// those rows. Tap sets other than the interior six (the three outputs
// nearest each image edge, and every output of a source narrower or shorter
// than seven pixels) run resizeGeneric's per-pixel loop over the same rows.
// The six-tap sums leave out one of its operations, the add of the first
// product to a zero accumulator, which can only turn a −0 sum into +0;
// clampByte maps both to 0. On amd64 the six-tap MACs run two float64 lanes
// per SSE2 instruction (lanczos2x_amd64.s), each lane the Go loop's
// operations in its order; elsewhere, and in the vertical pass's last few
// samples, the Go loops run.

// lanczosBand is the number of destination rows in one unit of parallel
// work of the plain ×2 resample. A band re-derives the horizontal rows its
// first output row reads, so a seam costs six of those rows.
const lanczosBand = 32

// Lanczos2x yields the rows of the ×2 Lanczos-3 upscale of one plane, in
// order, with no intermediate image. It is a worker's scratch: its buffers
// grow to the widest plane seen and are reused by every Start. The zero
// value is ready for Start.
type Lanczos2x struct {
	src       []uint8
	w, stride int
	hw, vw    []tapSet
	srow      []float64   // the source row being resampled, as float64
	ring      []float64   // eight horizontal rows of 2·w samples
	acc       []float64   // an edge row's accumulators
	next      int         // the next source row the ring would take
	pw        [12]float64 // the even and odd phases, interleaved
}

// Start points z at a w×h plane whose rows begin stride bytes apart; Row
// then produces the rows of its 2w×2h upscale.
func (z *Lanczos2x) Start(src []uint8, w, h, stride int) {
	z.src, z.w, z.stride, z.next = src, w, stride, 0
	z.hw = cachedWeights(w, 2*w, Lanczos3)
	z.vw = cachedWeights(h, 2*h, Lanczos3)
	if w >= 7 {
		for j := range 6 {
			z.pw[2*j], z.pw[2*j+1] = z.hw[6].weights[j], z.hw[7].weights[j]
		}
	}
	if w2 := 2 * w; cap(z.ring) < 8*w2 {
		z.srow, z.ring, z.acc = make([]float64, w), make([]float64, 8*w2), make([]float64, w2)
	}
}

// slot returns the ring slot of horizontal row y.
func (z *Lanczos2x) slot(y int) []float64 {
	w2 := 2 * z.w
	o := (y & 7) * w2
	return z.ring[o : o+w2 : o+w2]
}

// Row writes row y of the upscale into out (2w bytes). Successive calls
// after a Start must not decrease y; a first call may start anywhere.
func (z *Lanczos2x) Row(y int, out []uint8) {
	t := &z.vw[y]
	first, n := t.first, len(t.weights)
	// The ring holds the horizontal rows [next−8, next); fill it up to the
	// last row this output reads, skipping rows no output of this run reads.
	z.next = max(z.next, first)
	for ; z.next < first+n; z.next++ {
		z.across(z.slot(z.next), z.next)
	}
	out = out[:2*z.w]
	if n == 6 {
		down6(out, z.slot(first), z.slot(first+1), z.slot(first+2), z.slot(first+3), z.slot(first+4), z.slot(first+5), (*[6]float64)(t.weights))
		return
	}
	// An edge row: resampleCols' tap-outer accumulation.
	acc := z.acc[:len(out)]
	clear(acc)
	for i, wt := range t.weights {
		r := z.slot(first + i)
		for x := range acc {
			acc[x] += float64(wt * r[x])
		}
	}
	for x, v := range acc {
		out[x] = clampByte(v)
	}
}

// across writes the horizontal pass of source row y into dst: each output
// the clampByte of its sum, held as a float64.
func (z *Lanczos2x) across(dst []float64, y int) {
	w := z.w
	s := z.srow[:w]
	row := z.src[y*z.stride : y*z.stride+w]
	for x, v := range row {
		s[x] = float64(v)
	}
	// Interior pairs (2i, 2i+1) have six taps in both phases: i ∈ [3, w−4].
	lo, hi := 2*w, 2*w
	if w >= 7 {
		lo, hi = 6, 2*w-6
		across6(dst[lo:hi], s, &z.pw)
	}
	for _, x := range [2][2]int{{0, lo}, {hi, 2 * w}} {
		for d := x[0]; d < x[1]; d++ {
			t := &z.hw[d]
			var v float64
			for i, wt := range t.weights {
				v += float64(wt * s[t.first+i])
			}
			dst[d] = float64(clampByte(v))
		}
	}
}

// across6 is the horizontal pass over interior pairs: dst[2k], dst[2k+1]
// are outputs 6+2k and 7+2k, reading s[k … k+5] and s[k+1 … k+6] with the
// even and odd phases interleaved in pw. The pairs go through the vector
// bulk where the GOARCH has one, else through across6Go.
func across6(dst, s []float64, pw *[12]float64) {
	n := len(dst) / 2
	s = s[:n+6]
	if haveLanczosBulk && n > 0 {
		across6Pairs(&dst[0], &s[0], pw, n)
		return
	}
	across6Go(dst, s, pw)
}

// across6Go is the portable form of across6.
func across6Go(dst, s []float64, pw *[12]float64) {
	for k := 0; 2*k+1 < len(dst); k++ {
		p := s[k : k+7 : k+7]
		dst[2*k] = float64(clampByte(float64(pw[0]*p[0]) + float64(pw[2]*p[1]) + float64(pw[4]*p[2]) +
			float64(pw[6]*p[3]) + float64(pw[8]*p[4]) + float64(pw[10]*p[5])))
		dst[2*k+1] = float64(clampByte(float64(pw[1]*p[1]) + float64(pw[3]*p[2]) + float64(pw[5]*p[3]) +
			float64(pw[7]*p[4]) + float64(pw[9]*p[5]) + float64(pw[11]*p[6])))
	}
}

// down6 is the vertical pass of an interior output row: eight samples at a
// time through the vector bulk where the GOARCH has one, the rest through
// down6Go.
func down6(out []uint8, r0, r1, r2, r3, r4, r5 []float64, wt *[6]float64) {
	n := len(out)
	r0, r1, r2, r3, r4, r5 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n]
	x := 0
	if m := n &^ 7; haveLanczosBulk && m > 0 {
		down6x8(&out[0], &r0[0], &r1[0], &r2[0], &r3[0], &r4[0], &r5[0], wt, m)
		x = m
	}
	down6Go(out, r0, r1, r2, r3, r4, r5, wt, x)
}

// down6Go finishes down6 from sample x; x = 0 is the whole portable pass.
func down6Go(out []uint8, r0, r1, r2, r3, r4, r5 []float64, wt *[6]float64, x int) {
	n := len(out)
	r0, r1, r2, r3, r4, r5 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n]
	for ; x < n; x++ {
		out[x] = clampByte(float64(wt[0]*r0[x]) + float64(wt[1]*r1[x]) + float64(wt[2]*r2[x]) +
			float64(wt[3]*r3[x]) + float64(wt[4]*r4[x]) + float64(wt[5]*r5[x]))
	}
}

var lanczos2xScratch = parallel.NewScratch(func() *Lanczos2x { return new(Lanczos2x) })

// lanczos2x writes the ×2 Lanczos-3 upscale of src into dst, which must be
// exactly 2·src.W × 2·src.H. Either image may be a strided view.
func lanczos2x(dst, src *frame.Image) {
	parallel.ForWith((dst.H+lanczosBand-1)/lanczosBand, lanczos2xScratch, func(b0, b1 int, z *Lanczos2x) {
		y0, y1 := b0*lanczosBand, min(b1*lanczosBand, dst.H)
		for _, p := range [3][2][]uint8{{dst.R, src.R}, {dst.G, src.G}, {dst.B, src.B}} {
			z.Start(p[1], src.W, src.H, src.Stride)
			for y := y0; y < y1; y++ {
				z.Row(y, p[0][y*dst.Stride:])
			}
		}
	})
}

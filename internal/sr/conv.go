package sr

// The one convolution kernel. A Conv2D (or a whole Network, see edsr.go) is
// compiled once into a convPlan: per computed output channel, the list of
// its non-zero weights as taps, in the weight layout's (ic, ky, kx) order.
// Execution walks the (output channel × row) grid; each row is bias, then
// every tap as a slice loop over the interior columns with the replicated
// edge columns apart, then a fused epilogue.
//
// The invariant every change here must keep (TestConvMatchesReference holds
// it bit for bit): per output element, acc = bias, then acc += w·src for
// the non-zero weights in ascending (ic, ky, kx), each product rounded to
// float32 before the add, the epilogue last. Grouping taps only changes how
// often the accumulator row is loaded and stored, never that order.

import (
	"fmt"
	"sync"

	"gamestreamsr/internal/parallel"
)

// tap is one non-zero weight of a compiled convolution.
type tap struct {
	w      float32
	plane  int32 // source plane it reads
	dy, dx int16 // offset from the output pixel; replicate padding at the borders
}

// epilogue is what a row does with its finished accumulator.
type epilogue uint8

const (
	epiStore epilogue = iota // dst = acc
	epiReLU                  // dst = max(acc, 0): a residual block's first convolution
	epiAdd                   // dst = dst + acc: a residual block's second, and the global skip
)

// planOut is one computed output channel: the destination plane, its bias
// and its taps[t0:t1].
type planOut struct {
	dst    int32
	bias   float32
	t0, t1 int32
}

// convPlan is a convolution compiled for execution. Source and destination
// may be compacted tensors: srcC and dstC are the plane counts they must
// have, and the plan's plane indices point into them.
type convPlan struct {
	srcC, dstC int
	half       int
	epi        epilogue
	outs       []planOut
	taps       []tap
}

// identity returns the channel → plane map of an uncompacted tensor.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// compact returns the channel → plane map of a tensor holding only the live
// channels, in channel order (-1 for the dead ones), and its plane count.
func compact(live []bool) ([]int32, int) {
	idx := make([]int32, len(live))
	n := 0
	for c, l := range live {
		idx[c] = -1
		if l {
			idx[c] = int32(n)
			n++
		}
	}
	return idx, n
}

// liveInputs marks the input channels some live output channel reads
// through a non-zero weight — one step of the backward liveness pass. A
// layer that reads nothing keeps channel 0, so no tensor is ever empty.
func (c *Conv2D) liveInputs(liveOut []bool) []bool {
	live := make([]bool, c.InC)
	k2 := c.K * c.K
	for oc, l := range liveOut {
		if !l {
			continue
		}
		for ic := 0; ic < c.InC; ic++ {
			if live[ic] {
				continue
			}
			base := (oc*c.InC + ic) * k2
			for _, w := range c.Weight[base : base+k2] {
				if w != 0 {
					live[ic] = true
					break
				}
			}
		}
	}
	for _, l := range live {
		if l {
			return live
		}
	}
	live[0] = true
	return live
}

// compile builds the plan computing the output channels marked in live
// (nil: all of them) into planes dstIdx[oc] of a dstC-plane tensor, reading
// input channel ic from plane srcIdx[ic] of a srcC-plane tensor. Every input
// channel a live output reads must have a plane.
func (c *Conv2D) compile(live []bool, dstIdx []int32, dstC int, srcIdx []int32, srcC int, epi epilogue) *convPlan {
	p := &convPlan{srcC: srcC, dstC: dstC, half: c.K / 2, epi: epi}
	for oc := 0; oc < c.OutC; oc++ {
		if live != nil && !live[oc] {
			continue
		}
		t0 := len(p.taps)
		for ic := 0; ic < c.InC; ic++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					w := c.Weight[c.WIndex(oc, ic, ky, kx)]
					if w == 0 {
						continue
					}
					if srcIdx[ic] < 0 {
						panic(fmt.Sprintf("sr: live output %d reads dead input %d", oc, ic))
					}
					p.taps = append(p.taps, tap{w: w, plane: srcIdx[ic], dy: int16(ky - p.half), dx: int16(kx - p.half)})
				}
			}
		}
		p.outs = append(p.outs, planOut{dst: dstIdx[oc], bias: c.Bias[oc], t0: int32(t0), t1: int32(len(p.taps))})
	}
	return p
}

// macs returns the multiply-accumulates the plan executes per pixel.
func (p *convPlan) macs() int64 { return int64(len(p.taps)) }

// convRun carries one layer execution to the row workers. A caller checks
// one out per inference (startRun/release) and runs its layers through it
// one after another; fn is rows bound once, so dispatching a layer creates
// no closure.
type convRun struct {
	p        *convPlan
	dst, src *Tensor
	fn       func(lo, hi int, s *rowScratch)
}

// rowScratch is a worker's accumulator row for the epiAdd layers, whose
// destination cannot double as the accumulator.
type rowScratch struct{ acc []float32 }

var (
	convRuns = sync.Pool{New: func() any {
		r := new(convRun)
		r.fn = r.rows
		return r
	}}
	rowScratches = parallel.NewScratch(func() *rowScratch { return new(rowScratch) })
)

// startRun returns a convRun for one inference.
func startRun() *convRun { return convRuns.Get().(*convRun) }

func (r *convRun) release() {
	r.p, r.dst, r.src = nil, nil, nil
	convRuns.Put(r)
}

// run executes plan p over src into dst. The grid is (computed output
// channel × row); a chunk owns whole output rows, so the result is the same
// bits however the chunks are dispatched.
func (r *convRun) run(p *convPlan, dst, src *Tensor) {
	if src.C != p.srcC {
		panic(fmt.Sprintf("sr: conv expects %d channels, got %d", p.srcC, src.C))
	}
	checkShape("conv", dst, p.dstC, src.H, src.W)
	r.p, r.dst, r.src = p, dst, src
	parallel.ForWith(len(p.outs)*src.H, rowScratches, r.fn)
}

func (r *convRun) rows(lo, hi int, s *rowScratch) {
	H, W := r.src.H, r.src.W
	if cap(s.acc) < W {
		s.acc = make([]float32, W)
	}
	for i := lo; i < hi; i++ {
		r.p.row(r.dst, r.src, &r.p.outs[i/H], i%H, s.acc[:W])
	}
}

// row computes row y of one output channel.
func (p *convPlan) row(dst, src *Tensor, o *planOut, y int, scratch []float32) {
	H, W := src.H, src.W
	out := dst.Data[(int(o.dst)*H+y)*W:][:W]
	acc := out
	if p.epi == epiAdd {
		acc = scratch
	}
	for i := range acc {
		acc[i] = o.bias
	}
	// Columns [lo, hi) take every tap without clamping x+dx; the range is
	// empty when the image is narrower than the kernel.
	lo := min(p.half, W)
	hi := max(lo, W-p.half)
	in := acc[lo:hi]
	taps := p.taps[o.t0:o.t1]
	for ; len(in) > 0 && len(taps) >= 4; taps = taps[4:] {
		t0, t1, t2, t3 := &taps[0], &taps[1], &taps[2], &taps[3]
		s0, s1, s2, s3 := t0.row(src, y), t1.row(src, y), t2.row(src, y), t3.row(src, y)
		mac4(in, s0[lo+int(t0.dx):], s1[lo+int(t1.dx):], s2[lo+int(t2.dx):], s3[lo+int(t3.dx):], t0.w, t1.w, t2.w, t3.w)
		macEdges(acc, s0, t0, lo, hi)
		macEdges(acc, s1, t1, lo, hi)
		macEdges(acc, s2, t2, lo, hi)
		macEdges(acc, s3, t3, lo, hi)
	}
	for i := range taps {
		t := &taps[i]
		s := t.row(src, y)
		if len(in) > 0 {
			mac1(in, s[lo+int(t.dx):], t.w)
		}
		macEdges(acc, s, t, lo, hi)
	}
	switch p.epi {
	case epiReLU:
		for i, v := range out {
			if v < 0 {
				out[i] = 0
			}
		}
	case epiAdd:
		for i, v := range acc {
			out[i] = out[i] + v
		}
	}
}

// row returns the source row tap t reads for output row y.
func (t *tap) row(src *Tensor, y int) []float32 {
	sy := clampIdx(y+int(t.dy), src.H)
	return src.Data[(int(t.plane)*src.H+sy)*src.W:][:src.W]
}

// The products below are written float32(w * s) so that no compiler may
// fuse multiply and add into an FMA (Go does on arm64, ppc64 and s390x
// unless the product is explicitly converted): a fused product is not
// rounded, and the output would differ between architectures.

// mac1 adds w·s to acc over len(acc) columns.
func mac1(acc, s []float32, w float32) {
	s = s[:len(acc)]
	for i := range acc {
		acc[i] += float32(w * s[i])
	}
}

// mac4 adds four taps in order with one load and store of the accumulator.
// Kept out of line: inlined into row, its loop spills registers and runs at
// half the speed.
//
//go:noinline
func mac4(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32) {
	s0, s1, s2, s3 = s0[:len(acc)], s1[:len(acc)], s2[:len(acc)], s3[:len(acc)]
	for i := range acc {
		a := acc[i]
		a += float32(w0 * s0[i])
		a += float32(w1 * s1[i])
		a += float32(w2 * s2[i])
		a += float32(w3 * s3[i])
		acc[i] = a
	}
}

// macEdges adds tap t to the columns outside [lo, hi), where x+dx leaves
// the row and replicate padding clamps it.
func macEdges(acc, s []float32, t *tap, lo, hi int) {
	W, dx := len(acc), int(t.dx)
	for x := 0; x < lo; x++ {
		acc[x] += float32(t.w * s[clampIdx(x+dx, W)])
	}
	for x := hi; x < W; x++ {
		acc[x] += float32(t.w * s[clampIdx(x+dx, W)])
	}
}

// clampIdx clamps v to [0, n): the replicate padding of the convolutions.
func clampIdx(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

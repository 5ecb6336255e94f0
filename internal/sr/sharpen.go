package sr

import (
	"encoding/binary"
	"sync"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/upscale"
)

// The detail-restoration kernel of Fast: unsharp masking with a 3×3 binomial
// blur (1 2 1 / 2 4 2 / 1 2 1)/16 and the overshoot clamped to the local 3×3
// extrema, which restores the mid-frequency energy lost by the
// decimation/interpolation chain without introducing ringing halos.
//
// All three 3×3 reductions are separable over integers: with edges
// replicated, the weighted sum is the (1 2 1) sum down the columns of the
// (1 2 1) sums along the rows, and the minimum (maximum) of nine samples is
// the minimum (maximum) of the three row-wise minima (maxima) — integer
// addition and min/max are associative, so blur, lo and hi are the numbers
// the nine-sample loop arrives at, and the floating-point expression that
// follows sees the same operands. A worker therefore keeps the horizontal
// triples of the rows above, at and below the current one in three rolling
// buffers, as bilinear2x.go keeps its expanded rows, and takes them eight
// pixels to a word: the three neighbours of eight samples are the words one
// byte apart in an edge-replicated copy of the row, the sums ride in 16-bit
// lanes (at most 4·255 along a row, 16·255 after the columns) and the
// extrema in byte lanes. Only the output expression is per sample, and on
// amd64 it takes eight samples a call in SSE2 float64 lanes (sharpen_amd64.s).
//
// At ×2 with Lanczos-3 — the client's call — the pass computes the rows it
// sharpens itself (upscale.Lanczos2x), so no resampled image exists.

// sharpenBand is the number of rows in one unit of parallel work. A band
// re-derives the row on either side of it — from the resampled image, or
// from the source through the ×2 Lanczos rows — and never reads another
// band's output, so a seam costs two rows in sharpenBand+2 (and, fused, the
// few horizontal rows their vertical taps read).
const sharpenBand = 32

// sharpenRows is a worker's scratch, grown to the widest image seen: three
// rolling rows, each its bytes between edge copies and its triples, and the
// ×2 Lanczos rows of the fused pass.
type sharpenRows struct {
	pads  []uint8
	words []uint64
	lz    upscale.Lanczos2x
}

// rollRow is one rolling row: pad holds the row's w bytes at pad[1:w+1]
// between a copy of its first sample and copies of its last.
type rollRow struct {
	pad []uint8
	t   triples
}

// triples is one row's horizontal reductions, a word per eight pixels. Of
// pixels 8k … 8k+7, even[k] holds p[x−1] + 2·p[x] + p[x+1] for the four even
// x in its 16-bit lanes and odd[k] for the four odd x; lo[k] and hi[k] hold
// the least and the greatest of the three in byte lane x−8k.
type triples struct {
	even, odd, lo, hi []uint64
}

// rows returns the scratch cut for a width of w pixels.
func (r *sharpenRows) rows(w int) (above, cur, below rollRow) {
	n := (w + 7) / 8
	if cap(r.words) < 12*n {
		// The last word's right-hand neighbours are read at 8(n−1)+2.
		r.pads, r.words = make([]uint8, 3*(8*n+2)), make([]uint64, 12*n)
	}
	row := func(i int) rollRow {
		b := r.words[4*i*n : 4*(i+1)*n]
		return rollRow{r.pads[i*(8*n+2) : (i+1)*(8*n+2)], triples{b[:n], b[n : 2*n], b[2*n : 3*n], b[3*n:]}}
	}
	return row(0), row(1), row(2)
}

// sharpenRun carries one call to the band workers. It is recycled whole: fn
// is bands bound once, so a call creates no closure (as convRun's is). The
// pass reads its rows from up — an image some resampler wrote, its pixels
// the pool's and its header this run's — or, when lr is set, computes them
// as the ×2 Lanczos-3 upscale of lr, so that no resampled image exists.
type sharpenRun struct {
	up    frame.Image
	lr    *frame.Image
	dst   *frame.Image
	alpha float64
	fn    func(b0, b1 int, r *sharpenRows)
}

// sharpenRuns recycles the runs of finished calls. A mutex-guarded stack
// rather than a sync.Pool, which two collections in a row empty: the
// allocating client forms collect that often within a frame, and most calls
// would allocate their run again.
var sharpenRuns struct {
	mu   sync.Mutex
	free []*sharpenRun
}

var sharpenScratch = parallel.NewScratch(func() *sharpenRows { return new(sharpenRows) })

// getRun checks out a run.
func getRun() *sharpenRun {
	var s *sharpenRun
	sharpenRuns.mu.Lock()
	if k := len(sharpenRuns.free); k > 0 {
		s, sharpenRuns.free = sharpenRuns.free[k-1], sharpenRuns.free[:k-1]
	}
	sharpenRuns.mu.Unlock()
	if s == nil {
		s = new(sharpenRun)
		s.fn = s.bands
	}
	return s
}

// putRun returns a finished run for reuse.
func putRun(s *sharpenRun) {
	s.up, s.lr = frame.Image{}, nil
	sharpenRuns.mu.Lock()
	sharpenRuns.free = append(sharpenRuns.free, s)
	sharpenRuns.mu.Unlock()
}

// sharpen writes dst = up + alpha·(up − blur(up)), clamped to the local
// extrema of up, where up is the run's resampled image, read or computed.
// dst has up's geometry and shares no memory with its source; either may be
// a strided view.
func (s *sharpenRun) sharpen(dst *frame.Image, alpha float64) {
	s.dst, s.alpha = dst, alpha
	parallel.ForWith((dst.H+sharpenBand-1)/sharpenBand, sharpenScratch, s.fn)
	s.dst = nil
}

// bands sharpens bands [b0, b1) of the three planes.
func (s *sharpenRun) bands(b0, b1 int, r *sharpenRows) {
	y0, y1 := b0*sharpenBand, min(b1*sharpenBand, s.dst.H)
	for p := range 3 {
		s.plane(p, y0, y1, r)
	}
}

// planeOf returns plane p (R, G, B for 0, 1, 2) of im.
func planeOf(im *frame.Image, p int) []uint8 {
	switch p {
	case 0:
		return im.R
	case 1:
		return im.G
	}
	return im.B
}

// plane sharpens rows [y0, y1) of plane p.
func (s *sharpenRun) plane(p, y0, y1 int, r *sharpenRows) {
	w, h := s.dst.W, s.dst.H
	dst := planeOf(s.dst, p)
	above, cur, below := r.rows(w)
	if s.lr != nil {
		r.lz.Start(planeOf(s.lr, p), s.lr.W, s.lr.H, s.lr.Stride)
	}
	// take puts resampled row y into rr and reduces it. Rows are taken in
	// increasing order, as the Lanczos rows require.
	take := func(y int, rr rollRow) {
		if s.lr != nil {
			r.lz.Row(y, rr.pad[1:w+1])
		} else {
			o := y * s.up.Stride
			copy(rr.pad[1:w+1], planeOf(&s.up, p)[o:o+w])
		}
		rr.t.fill(rr.pad, w)
	}
	if y0 > 0 {
		take(y0-1, above)
	}
	take(y0, cur)
	for y := y0; y < y1; y++ {
		// At the top and bottom edges the missing row is the current one,
		// replicated.
		a, b := above, below
		if y == 0 {
			a = cur
		}
		if y+1 < h {
			take(y+1, below)
		} else {
			b = cur
		}
		sharpenRow(dst[y*s.dst.Stride:y*s.dst.Stride+w], cur.pad[1:w+1], a.t, cur.t, b.t, s.alpha)
		above, cur, below = cur, below, above
	}
}

const (
	evenBytes = 0x00FF00FF00FF00FF
	topBits   = 0x8080808080808080
)

// fill takes the triples of the w-pixel row at pad[1:w+1]. It first puts a
// copy of the row's first sample before it and copies of its last after it,
// so the left and right neighbours of eight samples are the words at one
// byte less and one more; lanes past the row's end reduce the replicated
// sample and are not read.
func (t triples) fill(pad []uint8, w int) {
	pad[0] = pad[1]
	tail := pad[1+w:]
	for i := range tail {
		tail[i] = pad[w]
	}
	even, odd, lo, hi := t.even, t.odd[:len(t.even)], t.lo[:len(t.even)], t.hi[:len(t.even)]
	for k := range even {
		l := binary.LittleEndian.Uint64(pad[8*k:])
		m := binary.LittleEndian.Uint64(pad[8*k+1:])
		r := binary.LittleEndian.Uint64(pad[8*k+2:])
		even[k] = l&evenBytes + 2*(m&evenBytes) + r&evenBytes
		odd[k] = l>>8&evenBytes + 2*(m>>8&evenBytes) + r>>8&evenBytes
		ge := geMask8(l, m)
		lo[k], hi[k] = min8(m&ge|l&^ge, r), max8(l&ge|m&^ge, r)
	}
}

// geMask8 returns 0xFF in every byte lane where a's byte is at least b's
// and 0 in the others. With the top bit forced on in a and off in b the
// lanes subtract without borrowing from each other and the difference's top
// bit says whether a's low seven bits are at least b's; that decides when
// the operands' top bits agree, and a's top bit decides when they do not.
func geMask8(a, b uint64) uint64 {
	low := (a | topBits) - (b &^ topBits)
	ge := (a&^b | ^(a^b)&low) & topBits
	return ge >> 7 * 0xFF
}

// min8 and max8 are the lane-wise minimum and maximum of eight bytes.
func min8(a, b uint64) uint64 {
	ge := geMask8(a, b)
	return b&ge | a&^ge
}

func max8(a, b uint64) uint64 {
	ge := geMask8(a, b)
	return a&ge | b&^ge
}

// sharpenRow is the vertical combine and the output expression of one row.
// The clamp to [lo, hi] also keeps the result inside [0, 255].
func sharpenRow(dst, src []uint8, a, c, b triples, alpha float64) {
	n := len(c.even)
	ae, ce, be := a.even[:n], c.even, b.even[:n]
	ao, co, bo := a.odd[:n], c.odd[:n], b.odd[:n]
	al, cl, bl := a.lo[:n], c.lo[:n], b.lo[:n]
	ah, ch, bh := a.hi[:n], c.hi[:n], b.hi[:n]
	for k := range ce {
		even := ae[k] + 2*ce[k] + be[k]
		odd := ao[k] + 2*co[k] + bo[k]
		los := min8(min8(al[k], cl[k]), bl[k])
		his := max8(max8(ah[k], ch[k]), bh[k])
		if end := 8*k + 8; haveSharpenBulk && end <= len(dst) {
			sharpen8x(&dst[8*k], &src[8*k], even, odd, los, his, alpha)
		} else {
			end = min(end, len(dst))
			sharpen8(dst[8*k:end], src[8*k:end], even, odd, los, his, alpha)
		}
	}
}

// sharpen8 is the output expression on up to eight pixels whose reductions
// are in the lanes of the four words. min(max(out, lo), hi) is the two-sided
// clamp without its branches, which game content takes unpredictably (a
// third of all samples overshoot): lo ≤ hi, so the two agree on every
// number, and a NaN (an infinite gain on a flat patch) passes through both.
func sharpen8(dst, src []uint8, even, odd, los, his uint64, alpha float64) {
	src = src[:len(dst)]
	for j := range dst {
		// Pixel j's sum is the low lane of even; the next one's is the low
		// lane of odd, and the one after in even's second lane.
		blur, lo, hi := even&0xFFFF, los&0xFF, his&0xFF
		even, odd, los, his = odd, even>>16, los>>8, his>>8
		v := float64(src[j])
		out := v + alpha*(v-float64(blur)/16)
		dst[j] = uint8(min(max(out, float64(lo)), float64(hi)) + 0.5)
	}
}

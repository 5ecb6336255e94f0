package sr

import (
	"encoding/binary"
	"sync"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
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
// extrema in byte lanes. Only the output expression is per sample.

// sharpenBand is the number of rows in one unit of parallel work. A band
// re-derives the triples of the row on either side of it from the source —
// it never reads another band's output — so the cost of a seam is two row
// passes in sharpenBand+2.
const sharpenBand = 16

// sharpenRows is a worker's scratch, grown to the widest image seen: the
// padded copy of the row being reduced and three rolling rows of triples.
type sharpenRows struct {
	pad   []uint8
	words []uint64
}

// triples is one row's horizontal reductions, a word per eight pixels. Of
// pixels 8k … 8k+7, even[k] holds p[x−1] + 2·p[x] + p[x+1] for the four even
// x in its 16-bit lanes and odd[k] for the four odd x; lo[k] and hi[k] hold
// the least and the greatest of the three in byte lane x−8k.
type triples struct {
	even, odd, lo, hi []uint64
}

// rows returns the scratch cut for a width of w pixels.
func (r *sharpenRows) rows(w int) (pad []uint8, above, cur, below triples) {
	n := (w + 7) / 8
	if cap(r.words) < 12*n {
		// The last word's right-hand neighbours are read at 8(n−1)+2.
		r.pad, r.words = make([]uint8, 8*n+2), make([]uint64, 12*n)
	}
	row := func(i int) triples {
		b := r.words[4*i*n : 4*(i+1)*n]
		return triples{b[:n], b[n : 2*n], b[2*n : 3*n], b[3*n:]}
	}
	return r.pad[:8*n+2], row(0), row(1), row(2)
}

// sharpenRun carries one call to the band workers. It is recycled whole: fn
// is bands bound once, so a call creates no closure (as convRun's is), and
// up's header is the one Fast resamples into, so the intermediate image
// costs its pixels and nothing else.
type sharpenRun struct {
	up    frame.Image // the resampled image the pass reads
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

// startSharpen checks out a run whose intermediate image is w×h, its pixels
// from pool.
func startSharpen(pool *bufpool.Pool, w, h int) *sharpenRun {
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
	n := w * h
	buf := pool.Bytes(3 * n)
	s.up = frame.Image{W: w, H: h, Stride: w, R: buf[:n], G: buf[n : 2*n], B: buf[2*n:]}
	return s
}

func (s *sharpenRun) release(pool *bufpool.Pool) {
	pool.PutBytes(s.up.R[:3*len(s.up.R)]) // the whole checkout: R heads it
	s.up = frame.Image{}
	sharpenRuns.mu.Lock()
	sharpenRuns.free = append(sharpenRuns.free, s)
	sharpenRuns.mu.Unlock()
}

// sharpen writes dst = up + alpha·(up − blur(up)), clamped to the local
// extrema of up. dst has up's geometry and shares no memory with it; either
// may be a strided view.
func (s *sharpenRun) sharpen(dst *frame.Image, alpha float64) {
	s.dst, s.alpha = dst, alpha
	parallel.ForWith((s.up.H+sharpenBand-1)/sharpenBand, sharpenScratch, s.fn)
	s.dst = nil
}

// bands sharpens bands [b0, b1) of the three planes.
func (s *sharpenRun) bands(b0, b1 int, r *sharpenRows) {
	y0, y1 := b0*sharpenBand, min(b1*sharpenBand, s.up.H)
	s.plane(s.dst.R, s.up.R, y0, y1, r)
	s.plane(s.dst.G, s.up.G, y0, y1, r)
	s.plane(s.dst.B, s.up.B, y0, y1, r)
}

// plane sharpens rows [y0, y1) of one plane.
func (s *sharpenRun) plane(dst, src []uint8, y0, y1 int, r *sharpenRows) {
	w, h := s.up.W, s.up.H
	pad, above, cur, below := r.rows(w)
	row := func(y int) []uint8 { return src[y*s.up.Stride : y*s.up.Stride+w] }
	cur.fill(row(y0), pad)
	if y0 > 0 {
		above.fill(row(y0-1), pad)
	}
	for y := y0; y < y1; y++ {
		// At the top and bottom edges the missing row is the current one,
		// replicated.
		a, b := above, below
		if y == 0 {
			a = cur
		}
		if y+1 < h {
			below.fill(row(y+1), pad)
		} else {
			b = cur
		}
		sharpenRow(dst[y*s.dst.Stride:y*s.dst.Stride+w], row(y), a, cur, b, s.alpha)
		above, cur, below = cur, below, above
	}
}

const (
	evenBytes = 0x00FF00FF00FF00FF
	topBits   = 0x8080808080808080
)

// fill takes the triples of one plane row. pad receives the row between a
// copy of its first sample and copies of its last, so the left and right
// neighbours of eight samples are the words at one byte less and one more;
// lanes past the row's end reduce the replicated sample and are not read.
func (t triples) fill(src, pad []uint8) {
	pad[0] = src[0]
	tail := pad[1+copy(pad[1:], src):]
	for i := range tail {
		tail[i] = src[len(src)-1]
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
		end := min(8*k+8, len(dst))
		sharpen8(dst[8*k:end], src[8*k:end], even, odd, los, his, alpha)
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

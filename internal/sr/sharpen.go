package sr

import (
	"encoding/binary"
	"sync"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/upscale"
)

// The detail-restoration kernel of Fast: unsharp masking at gain α = 2 with
// a 3×3 binomial blur (1 2 1 / 2 4 2 / 1 2 1)/16 and the overshoot clamped
// to the local 3×3 extrema, which restores the mid-frequency energy lost by
// the decimation/interpolation chain without introducing ringing halos.
//
// At α = 2 the output is an integer expression. With v the sample, blur the
// weighted sum of its nine neighbours (at most 16·255) and lo ≤ hi their
// extrema, the float form clamps v + 2·(v − blur/16) to [lo, hi], adds 0.5
// and truncates. Every step is exact in float64 (blur/16 is a division by a
// power of two, and the rest are sums of multiples of 1/16 far below 2⁵³),
// so the clamped value is N/8 with N = 24v − blur. Rounding half up is
// monotone and fixes integers, so it commutes with the clamp to integer
// bounds, and ⌊N/8 + ½⌋ = (N + 4) >> 3 with an arithmetic shift: the byte
// is clamp((24v − blur + 4) >> 3, lo, hi), with 24v − blur + 4 in
// [−4076, 6124], inside 16-bit lanes.
//
// All three 3×3 reductions are separable: with edges replicated, the
// weighted sum is the (1 2 1) sum down the columns of the (1 2 1) sums along
// the rows, and the minimum (maximum) of nine samples is the minimum
// (maximum) of the three row-wise minima (maxima). A worker keeps the row
// reductions of the rows above, at and below the current one in three
// rolling rows, as bilinear2x.go keeps its expanded rows; each row is
// reduced once and read three times. On amd64 the row reductions and the
// column combine with the output run in SSE2 (sharpen_amd64.s), sixteen
// pixels a loop: the sums eight to a register in 16-bit lanes, the
// extrema, the clamp and the output sixteen in byte lanes. reduceGo and
// sharpenGo are their Go twins, which every other GOARCH runs.
//
// At ×2 with Lanczos-3 — the client's call — the pass computes the rows it
// sharpens itself (upscale.Lanczos2x), so no resampled image exists.

// sharpenGain is the detail-restoration gain α in out = up + α·(up − blur),
// the point the calibration sweep in TestSharpenSweepDefaultNearOptimal
// holds near the PSNR optimum on game content. The kernel's integer form is
// exact for this value only.
const sharpenGain = 2

// sharpenBand is the number of rows in one unit of parallel work. A band
// re-derives the row on either side of it — from the resampled image, or
// from the source through the ×2 Lanczos rows — and never reads another
// band's output, so a seam costs two rows in sharpenBand+2 (and, fused, the
// few horizontal rows their vertical taps read).
const sharpenBand = 32

// sharpenRows is a worker's scratch, grown to the widest image seen: three
// rolling rows and the ×2 Lanczos rows of the fused pass.
type sharpenRows struct {
	buf []uint8
	lz  upscale.Lanczos2x
}

// rollRow is one rolling row of a w-pixel image, its lanes w rounded up to
// a multiple of 16. pad holds the row's bytes at pad[1:w+1] between a copy
// of its first sample and copies of its last, to the end of the lanes and
// one byte past. red holds the row's reductions, 64 bytes per 16 pixels:
// pixels 16k … 16k+15 have their p[x−1] + 2·p[x] + p[x+1] as little-endian
// uint16 at red[64k : 64k+32], the least of the three at red[64k+32 :
// 64k+48] and the greatest at red[64k+48 : 64k+64] — one cache line, and
// one 16-byte load each for the kernel.
type rollRow struct {
	pad, red []uint8
}

// rows returns the scratch cut for a width of w pixels.
func (r *sharpenRows) rows(w int) (above, cur, below rollRow) {
	n := (w + 15) &^ 15
	per := 5*n + 2
	if len(r.buf) < 3*per {
		r.buf = make([]uint8, 3*per)
	}
	row := func(i int) rollRow {
		b := r.buf[i*per:]
		return rollRow{b[: n+2 : n+2], b[n+2 : per : per]}
	}
	return row(0), row(1), row(2)
}

// sharpenRun carries one call to the band workers. It is recycled whole: fn
// is bands bound once, so a call creates no closure (as convRun's is). The
// pass reads its rows from up — an image some resampler wrote, its pixels
// the pool's and its header this run's — or, when lr is set, computes them
// as the ×2 Lanczos-3 upscale of lr, so that no resampled image exists.
type sharpenRun struct {
	up  frame.Image
	lr  *frame.Image
	dst *frame.Image
	fn  func(b0, b1 int, r *sharpenRows)
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

// sharpen writes dst = up + 2·(up − blur(up)), clamped to the local extrema
// of up, where up is the run's resampled image, read or computed. dst has
// up's geometry and shares no memory with its source; either may be a
// strided view.
func (s *sharpenRun) sharpen(dst *frame.Image) {
	s.dst = dst
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
		rr.reduce(w)
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
		sharpenRow(dst[y*s.dst.Stride:y*s.dst.Stride+w], cur.pad[1:], a.red, cur.red, b.red)
		above, cur, below = cur, below, above
	}
}

// reduce fills rr.red from the w-pixel row at rr.pad[1:w+1]. It first puts
// a copy of the row's first sample before it and copies of its last after
// it, so every lane has its three neighbours; lanes past the row's end
// reduce the replicated sample and are not read.
func (rr rollRow) reduce(w int) {
	pad := rr.pad
	pad[0] = pad[1]
	tail := pad[1+w:]
	for i := range tail {
		tail[i] = pad[w]
	}
	if haveSharpenBulk {
		reduce16(&rr.red[0], &pad[0], len(pad)-2)
		return
	}
	reduceGo(rr.red, pad)
}

// reduceGo is reduce16's Go twin: the reductions of every lane of pad.
func reduceGo(red, pad []uint8) {
	for x := range len(pad) - 2 {
		l, m, r := pad[x], pad[x+1], pad[x+2]
		o := x>>4*64 + x&15
		binary.LittleEndian.PutUint16(red[o+x&15:], uint16(l)+2*uint16(m)+uint16(r))
		red[o+32], red[o+48] = min(l, m, r), max(l, m, r)
	}
}

// sharpenRow is the vertical combine and the output of one row: dst from
// its samples at src[0:len(dst)] and the reductions of the rows above (a),
// at (c) and below (b). src reaches to the end of the row's lanes.
func sharpenRow(dst, src, a, c, b []uint8) {
	if !haveSharpenBulk {
		sharpenGo(dst, src, a, c, b)
		return
	}
	n := len(dst) &^ 15
	if n > 0 {
		sharpen16(&dst[0], &src[0], &a[0], &c[0], &b[0], n)
	}
	if n < len(dst) {
		// The last, partial group: its lanes past the row's end hold the
		// replicated sample's reductions, so the kernel runs on all sixteen
		// and only the row's own bytes are kept.
		var out [16]uint8
		k := n / 16 * 64
		sharpen16(&out[0], &src[n], &a[k], &c[k], &b[k], 16)
		copy(dst[n:], out[:])
	}
}

// sharpenGo is sharpen16's Go twin, the output expression per pixel:
// clamp((24v − blur + 4) >> 3, lo, hi). The clamp also keeps the byte
// inside [0, 255], since lo and hi are samples.
func sharpenGo(dst, src, a, c, b []uint8) {
	src = src[:len(dst)]
	for x, v := range src {
		o := x>>4*64 + x&15
		s := o + x&15
		blur := int(binary.LittleEndian.Uint16(a[s:])) + 2*int(binary.LittleEndian.Uint16(c[s:])) + int(binary.LittleEndian.Uint16(b[s:]))
		lo := min(a[o+32], c[o+32], b[o+32])
		hi := max(a[o+48], c[o+48], b[o+48])
		dst[x] = uint8(min(max((24*int(v)-blur+4)>>3, int(lo)), int(hi)))
	}
}

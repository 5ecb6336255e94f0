package codec

import (
	"encoding/binary"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// The encoder's frame kernels, in two forms that emit the same bytes. The
// reference form is the per-pixel loop: every reference coordinate clamped
// to the frame, the quantiser looked up and divided by per pixel, one block
// after another, one slice after another. The shipped form hands each block
// row to a worker under the encoder's scheduler client — search, residual,
// reconstruction and the entropy coding of the row's slice — and, wherever a
// block's displaced footprint lies inside the frame, works on row slices with
// the quantiser hoisted per span; border blocks, vectors pointing off the
// frame and half-pel streams fall back to the reference loop block by block.
// A slice depends on nothing but its own block row and read-only inputs, so
// the bitstream is the same at any GOMAXPROCS (DESIGN.md §18, §21).

// quantize is the inter quantiser: the level of prediction difference d at
// step q, zero inside the deadzone, rounding half away from zero.
func quantize(d, q, dz int32) int32 {
	switch {
	case d > dz:
		return (d + q/2) / q
	case d < -dz:
		return -((-d + q/2) / q)
	}
	return 0
}

// sliceJob is the frame being coded, shared by the slice workers: every
// block row is searched, quantised, reconstructed and entropy-coded into its
// own buffer by one worker, so nothing of a frame is serial but the final
// concatenation. It lives in the Encoder so that a frame costs no closure.
type sliceJob struct {
	h       header
	bw, rng int
	dz      int32
	// src is the packed frame, ref the previous reconstruction (inter only),
	// recon the new one: pooled and dirty, every pixel of it is written.
	src, ref, recon *frame.Image
	mvs             []MV
	// out[by] is slice by's bytes; the buffers keep their capacity across
	// frames.
	out [][]byte
	// clampedOnly sends every candidate, block and pixel through the
	// reference loops.
	clampedOnly bool
}

// encodeSlices codes the packed frame im as h.ftype says — an inter frame
// against the previous reconstruction — appending the slice table and the
// slices to buf (which already holds the header), and returns it with the
// decoder-identical reconstruction, drawn from the encoder's pool.
func (e *Encoder) encodeSlices(buf []byte, im *frame.Image, h header) ([]byte, *frame.Image) {
	bw, bh := (h.w+h.bs-1)/h.bs, (h.h+h.bs-1)/h.bs
	if cap(e.mvs) < bw*bh {
		e.mvs = make([]MV, bw*bh)
	}
	e.mvs = e.mvs[:bw*bh]
	recon := e.pool.Image(h.w, h.h)
	j := &e.job
	j.h, j.bw, j.rng, j.dz, j.clampedOnly = h, bw, e.cfg.SearchRange, int32(e.cfg.Deadzone), e.reference
	j.src, j.ref, j.recon, j.mvs = im, e.prev, recon, e.mvs
	for len(j.out) < bh {
		j.out = append(j.out, nil)
	}
	if e.slices == nil {
		e.slices = j.slices
	}
	if e.reference {
		// One chunk, so one scratch and no second worker.
		parallel.ForWith(1, e.bands, func(_, _ int, vals []int32) { e.slices(0, bh, vals) })
	} else {
		parallel.ForWithOn(e.sched, bh, e.bands, e.slices)
	}
	j.src, j.ref, j.recon = nil, nil, nil
	return appendSlices(buf, j.out[:bh]), recon
}

// appendSlices is the framing behind the header: the table of slice lengths,
// then the slices.
func appendSlices(buf []byte, slices [][]byte) []byte {
	for _, s := range slices {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	for _, s := range slices {
		buf = append(buf, s...)
	}
	return buf
}

// slices codes block rows [lo, hi). vals is the worker's scratch for one
// sequence: a band of one plane, or a row of vector components. A row writes
// its own pixel rows of the reconstruction and its own buffer from read-only
// inputs, so block rows are independent.
func (j *sliceJob) slices(lo, hi int, vals []int32) {
	for by := lo; by < hi; by++ {
		if j.h.ftype == Intra {
			j.out[by] = j.intraSlice(j.out[by][:0], by, vals)
		} else {
			j.out[by] = j.interSlice(j.out[by][:0], by, vals)
		}
	}
}

// intraSlice appends band by of an intra frame to buf.
func (j *sliceJob) intraSlice(buf []byte, by int, vals []int32) []byte {
	h := j.h
	y := by * h.bs
	hh := min(h.bs, h.h-y)
	for p := 0; p < 3; p++ {
		pl := intraPlane{h: h, src: srcPlane(j.src, p), rp: reconPlane(j.recon, p), vals: vals[:hh*h.w]}
		if j.clampedOnly {
			pl.perPixel(y)
		} else {
			pl.band(y, hh)
		}
		buf = appendSignedRLE(buf, pl.vals)
	}
	return buf
}

// intraPlane is one band of one colour plane of an intra frame being coded:
// src is quantized into the delta-predicted levels vals — the band's, the
// predictor starting from 0 — and reconstructed into rp. src and rp are whole
// planes, packed, width h.w.
type intraPlane struct {
	h       header
	src, rp []uint8
	vals    []int32
}

// perPixel is the reference loop over the band from row y: one quantiser
// lookup and one divide per pixel, in raster order.
func (pl *intraPlane) perPixel(y int) {
	o := y * pl.h.w
	prev := int32(0)
	for i := range pl.vals {
		q := pl.h.qAt(i%pl.h.w, y+i/pl.h.w)
		qv := (int32(pl.src[o+i]) + q/2) / q
		pl.vals[i] = qv - prev
		prev = qv
		pl.rp[o+i] = clamp8(qv * q)
	}
}

// band codes the hh pixel rows from y with the quantiser hoisted per span.
func (pl *intraPlane) band(y, hh int) {
	h := pl.h
	prev := int32(0)
	for r := 0; r < hh; r++ {
		o, vo := (y+r)*h.w, r*h.w
		a, b := h.roiSpan(0, h.w, y+r)
		prev = pl.span(o, vo, a, prev, int32(h.q))
		prev = pl.span(o+a, vo+a, b-a, prev, int32(h.roiQ))
		prev = pl.span(o+b, vo+b, h.w-b, prev, int32(h.q))
	}
}

// span codes n pixels from plane offset o (band offset vo) at the constant
// quantiser q, returning the running level for the next span.
func (pl *intraPlane) span(o, vo, n int, prev, q int32) int32 {
	src, rp, vals := pl.src[o:o+n], pl.rp[o:o+n], pl.vals[vo:vo+n]
	for i, v := range src {
		qv := (int32(v) + q/2) / q
		vals[i] = qv - prev
		prev = qv
		rp[i] = clamp8(qv * q)
	}
	return prev
}

// interSlice appends block row by of an inter frame to buf: its vectors —
// a block's search starts at (0, 0) and reads nothing of its neighbours' —
// then the band of each plane's quantized residual.
func (j *sliceJob) interSlice(buf []byte, by int, vals []int32) []byte {
	h := j.h
	y := by * h.bs
	hh := min(h.bs, h.h-y)
	mvs := j.mvs[by*j.bw : (by+1)*j.bw]
	// Motion estimation on luma-ish green plane (cheap, standard trick).
	for bx := range mvs {
		x := bx * h.bs
		w := min(h.bs, h.w-x)
		if h.halfPel {
			mvs[bx] = halfPelSearch(j.src.G, j.ref.G, h.w, h.h, x, y, w, hh, j.rng)
		} else {
			mvs[bx] = diamondSearch(j.src.G, j.ref.G, h.w, h.h, x, y, w, hh, j.rng, j.clampedOnly)
		}
		vals[2*bx], vals[2*bx+1] = int32(mvs[bx].DX), int32(mvs[bx].DY)
	}
	buf = appendSignedRLE(buf, vals[:2*len(mvs)])
	for p := 0; p < 3; p++ {
		pl := residualPlane{h: h, dz: j.dz, band: y * h.w, src: srcPlane(j.src, p), ref: srcPlane(j.ref, p), rp: reconPlane(j.recon, p), res: vals[:hh*h.w]}
		pl.blockRow(y, hh, mvs, j.clampedOnly)
		buf = appendSignedRLE(buf, pl.res)
	}
	return buf
}

// residualPlane is one band of one colour plane of an inter frame being
// coded: the motion-compensated prediction from ref is subtracted from src,
// the difference quantized into res and the decoder's reconstruction written
// to rp. src, ref and rp are whole planes, packed, width h.w; res is the band
// alone, so plane offset o is res[o-band].
type residualPlane struct {
	h            header
	dz           int32
	band         int
	src, ref, rp []uint8
	res          []int32
}

// blockRow codes the blocks of the hh pixel rows from y. A block whose
// displaced footprint lies inside the frame (integer-pel only) needs no
// coordinate clamp, so it runs row slice by row slice with the quantiser
// hoisted per span; border blocks, half-pel streams and vectors pointing off
// the frame — and, with clampedOnly, everything — keep the clamped per-pixel
// loop. Both produce the same values.
func (pl *residualPlane) blockRow(y, hh int, mvs []MV, clampedOnly bool) {
	h := pl.h
	for bx, mv := range mvs {
		x := bx * h.bs
		w := min(h.bs, h.w-x)
		dx, dy := int(mv.DX), int(mv.DY)
		if clampedOnly || h.halfPel || x+dx < 0 || x+w+dx > h.w || y+dy < 0 || y+hh+dy > h.h {
			pl.blockClamped(x, y, w, hh, mv)
			continue
		}
		for sy := y; sy < y+hh; sy++ {
			o := sy*h.w + x
			r := (sy+dy)*h.w + x + dx
			a, b := h.roiSpan(x, w, sy)
			pl.span(o, r, a, int32(h.q))
			pl.span(o+a, r+a, b-a, int32(h.roiQ))
			pl.span(o+b, r+b, w-b, int32(h.q))
		}
	}
}

// span codes n pixels from offset o, predicted from reference offset r, at
// the constant quantiser q.
func (pl *residualPlane) span(o, r, n int, q int32) {
	src, ref, rp, res := pl.src[o:o+n], pl.ref[r:r+n], pl.rp[o:o+n], pl.res[o-pl.band:o-pl.band+n]
	for i, v := range src {
		pred := int32(ref[i])
		qd := quantize(int32(v)-pred, q, pl.dz)
		res[i] = qd
		rp[i] = clamp8(pred + qd*q)
	}
}

// blockClamped is the general per-pixel loop: every reference coordinate is
// clamped to the frame (or half-pel interpolated), the quantiser looked up
// and divided by per pixel.
func (pl *residualPlane) blockClamped(x, y, w, hh int, mv MV) {
	h := pl.h
	for j := 0; j < hh; j++ {
		sy := y + j
		ry := clampInt(sy+int(mv.DY), 0, h.h-1)
		for i := 0; i < w; i++ {
			sx := x + i
			rx := clampInt(sx+int(mv.DX), 0, h.w-1)
			var pred int32
			if h.halfPel {
				pred = predHalfPel(pl.ref, h.w, h.h, sx, sy, int(mv.DX), int(mv.DY))
			} else {
				pred = int32(pl.ref[ry*h.w+rx])
			}
			q := h.qAt(sx, sy)
			qd := quantize(int32(pl.src[sy*h.w+sx])-pred, q, pl.dz)
			pl.res[sy*h.w+sx-pl.band] = qd
			pl.rp[sy*h.w+sx] = clamp8(pred + qd*q)
		}
	}
}

// diamondSearch finds the motion vector minimising the SAD of the block at
// (x, y) of size w×h between cur and ref (both width W, height H planes),
// searching within ±rng using a small-diamond pattern seeded at (0, 0).
// Unless clampedOnly, a candidate whose displaced block lies inside the
// frame is scored by sadInside; the SAD, and so the vector, is the same
// either way.
func diamondSearch(cur, ref []uint8, W, H, x, y, w, h, rng int, clampedOnly bool) MV {
	score := func(dx, dy int) int {
		if clampedOnly || x+dx < 0 || x+w+dx > W || y+dy < 0 || y+h+dy > H {
			return sad(cur, ref, W, H, x, y, w, h, dx, dy)
		}
		return sadInside(cur, ref, W, x, y, w, h, dx, dy)
	}
	best := score(0, 0)
	bx, by := 0, 0
	if best == 0 {
		return MV{}
	}
	// Large diamond until stable, then small diamond refinement.
	large := [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
	small := [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
	for moved := true; moved; {
		moved = false
		for _, d := range large {
			nx, ny := bx+d[0], by+d[1]
			if nx < -rng || nx > rng || ny < -rng || ny > rng {
				continue
			}
			if s := score(nx, ny); s < best {
				best, bx, by = s, nx, ny
				moved = true
			}
		}
	}
	for _, d := range small {
		nx, ny := bx+d[0], by+d[1]
		if nx < -rng || nx > rng || ny < -rng || ny > rng {
			continue
		}
		if s := score(nx, ny); s < best {
			best, bx, by = s, nx, ny
		}
	}
	return MV{DX: int8(bx), DY: int8(by)}
}

// sad computes the sum of absolute differences between the block at (x, y)
// in cur and the block displaced by (dx, dy) in ref, clamping at frame
// borders.
func sad(cur, ref []uint8, W, H, x, y, w, h, dx, dy int) int {
	total := 0
	for j := 0; j < h; j++ {
		sy := y + j
		ry := clampInt(sy+dy, 0, H-1)
		crow := sy * W
		rrow := ry * W
		for i := 0; i < w; i++ {
			sx := x + i
			rx := clampInt(sx+dx, 0, W-1)
			d := int(cur[crow+sx]) - int(ref[rrow+rx])
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}

// sadInside is sad for a displaced block that lies wholly inside the frame:
// no clamp, one row slice against another.
func sadInside(cur, ref []uint8, W, x, y, w, h, dx, dy int) int {
	total := 0
	co := y*W + x
	ro := (y+dy)*W + x + dx
	for j := 0; j < h; j++ {
		c, r := cur[co:co+w], ref[ro:ro+w]
		for i, v := range c {
			d := int(v) - int(r[i])
			if d < 0 {
				d = -d
			}
			total += d
		}
		co += W
		ro += W
	}
	return total
}

package codec

import (
	"encoding/binary"

	"gamestreamsr/internal/frame"
)

// The encoder's frame kernels, in two forms that emit the same bytes. The
// reference form is the per-pixel loop: every reference coordinate clamped
// to the frame, the quantiser looked up and divided by per pixel, one block
// after another. The shipped form runs block rows (intra: pixel rows) under
// the encoder's scheduler client and, wherever a block's displaced footprint
// lies inside the frame, works on row slices with the quantiser hoisted per
// span; border blocks, vectors pointing off the frame and half-pel streams
// fall back to the reference loop block by block. The chunk grid depends
// only on the number of rows, and every block writes its own pixels from
// read-only inputs, so the bitstream is the same at any GOMAXPROCS
// (DESIGN.md §18).

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

// encodeIntra quantizes and entropy-codes the packed frame im, appending the
// planes to buf (which already holds the header) and returning it with the
// decoder-identical reconstruction. The reconstruction is drawn from the
// encoder's pool; its every pixel is written.
func (e *Encoder) encodeIntra(buf []byte, im *frame.Image, h header) ([]byte, *frame.Image) {
	recon := e.pool.Image(h.w, h.h)
	vals := e.pool.Int32s(h.w * h.h)
	pl := intraPlane{h: h, vals: vals}
	rows := pl.rows // bound once: the planes below are set through pl
	for p := 0; p < 3; p++ {
		pl.src, pl.rp = srcPlane(im, p), reconPlane(recon, p)
		if e.reference {
			pl.perPixel()
		} else {
			e.sched.For(h.h, rows)
		}
		// Entropy coding is serial by nature; quantisation is not.
		buf = appendSignedRLE(buf, vals)
	}
	e.pool.PutInt32s(vals)
	return buf, recon
}

// intraPlane is one colour plane of an intra frame being coded: src is
// quantized into the delta-predicted levels vals and reconstructed into rp.
// All planes are packed, width h.w.
type intraPlane struct {
	h       header
	src, rp []uint8
	vals    []int32
}

// perPixel is the reference loop: one quantiser lookup and one divide per
// pixel, in raster order.
func (pl *intraPlane) perPixel() {
	prev := int32(0)
	for i, v := range pl.src {
		q := pl.h.qAt(i%pl.h.w, i/pl.h.w)
		qv := (int32(v) + q/2) / q
		pl.vals[i] = qv - prev
		prev = qv
		pl.rp[i] = clamp8(qv * q)
	}
}

// rows codes pixel rows [lo, hi) with the quantiser hoisted per span. The
// delta chain runs across row ends, but a level depends on its own sample
// only, so a row starts from the level of the pixel before it without
// waiting for the row above.
func (pl *intraPlane) rows(lo, hi int) {
	h := pl.h
	for y := lo; y < hi; y++ {
		row := y * h.w
		prev := int32(0)
		if y > 0 {
			q := h.qAt(h.w-1, y-1)
			prev = (int32(pl.src[row-1]) + q/2) / q
		}
		a, b := h.roiSpan(0, h.w, y)
		prev = pl.span(row, a, prev, int32(h.q))
		prev = pl.span(row+a, b-a, prev, int32(h.roiQ))
		pl.span(row+b, h.w-b, prev, int32(h.q))
	}
}

// span codes n pixels from offset o at the constant quantiser q, returning
// the running level for the next span.
func (pl *intraPlane) span(o, n int, prev, q int32) int32 {
	src, rp, vals := pl.src[o:o+n], pl.rp[o:o+n], pl.vals[o:o+n]
	for i, v := range src {
		qv := (int32(v) + q/2) / q
		vals[i] = qv - prev
		prev = qv
		rp[i] = clamp8(qv * q)
	}
	return prev
}

// encodeInter motion-compensates the packed frame im against the previous
// reconstruction, quantizes the residual and entropy-codes MVs + residual
// onto buf (which already holds the header).
func (e *Encoder) encodeInter(buf []byte, im *frame.Image, h header) ([]byte, *frame.Image) {
	bw := (h.w + h.bs - 1) / h.bs
	bh := (h.h + h.bs - 1) / h.bs
	if cap(e.mvs) < bw*bh {
		e.mvs = make([]MV, bw*bh)
	}
	mvs := e.mvs[:bw*bh]
	// Motion estimation on luma-ish green plane (cheap, standard trick). A
	// block's search starts at (0, 0) and reads nothing of its neighbours',
	// so block rows are independent.
	ms := motionSearch{h: h, bw: bw, rng: e.cfg.SearchRange, cur: im.G, ref: e.prev.G, mvs: mvs, clampedOnly: e.reference}
	if e.reference {
		ms.blockRows(0, bh)
	} else {
		e.sched.For(bh, ms.blockRows)
	}
	for _, mv := range mvs {
		buf = binary.AppendVarint(buf, int64(mv.DX))
		buf = binary.AppendVarint(buf, int64(mv.DY))
	}
	// Residuals per plane. The reconstruction and residual scratch come
	// dirty from the pool; the block grid covers every pixel, so both are
	// fully overwritten.
	recon := e.pool.Image(h.w, h.h)
	res := e.pool.Int32s(h.w * h.h)
	pl := residualPlane{h: h, bw: bw, dz: int32(e.cfg.Deadzone), mvs: mvs, res: res, clampedOnly: e.reference}
	blockRows := pl.blockRows // bound once: the planes below are set through pl
	for p := 0; p < 3; p++ {
		pl.src, pl.ref, pl.rp = srcPlane(im, p), srcPlane(e.prev, p), reconPlane(recon, p)
		if e.reference {
			blockRows(0, bh)
		} else {
			// Block rows write disjoint pixel rows of recon and res and only
			// read im and the reference, so they parallelise freely.
			e.sched.For(bh, blockRows)
		}
		buf = appendSignedRLE(buf, res)
	}
	e.pool.PutInt32s(res)
	return buf, recon
}

// motionSearch is the motion estimation of one inter frame: the vector of
// every block of cur (packed, h.w × h.h) against ref, into mvs.
type motionSearch struct {
	h        header
	bw, rng  int
	cur, ref []uint8
	mvs      []MV
	// clampedOnly scores every candidate with the clamped reference sad, as
	// the half-pel search always does.
	clampedOnly bool
}

func (ms *motionSearch) blockRows(lo, hi int) {
	h := ms.h
	for by := lo; by < hi; by++ {
		y := by * h.bs
		hh := min(h.bs, h.h-y)
		for bx := 0; bx < ms.bw; bx++ {
			x := bx * h.bs
			w := min(h.bs, h.w-x)
			if h.halfPel {
				ms.mvs[by*ms.bw+bx] = halfPelSearch(ms.cur, ms.ref, h.w, h.h, x, y, w, hh, ms.rng)
			} else {
				ms.mvs[by*ms.bw+bx] = diamondSearch(ms.cur, ms.ref, h.w, h.h, x, y, w, hh, ms.rng, ms.clampedOnly)
			}
		}
	}
}

// residualPlane is one colour plane of an inter frame being coded: the
// motion-compensated prediction from ref is subtracted from src, the
// difference quantized into res and the decoder's reconstruction written to
// rp. All planes are packed, width h.w.
type residualPlane struct {
	h            header
	bw           int
	dz           int32
	mvs          []MV
	src, ref, rp []uint8
	res          []int32
	// clampedOnly sends every block through the per-pixel loop.
	clampedOnly bool
}

// blockRows codes block rows [lo, hi). A block whose displaced footprint
// lies inside the frame (integer-pel only) needs no coordinate clamp, so it
// runs row slice by row slice with the quantiser hoisted per span;
// border blocks, half-pel streams and vectors pointing off the frame — and,
// with clampedOnly, everything — keep the clamped per-pixel loop. Both
// produce the same values.
func (pl *residualPlane) blockRows(lo, hi int) {
	h := pl.h
	for by := lo; by < hi; by++ {
		y := by * h.bs
		hh := min(h.bs, h.h-y)
		for bx := 0; bx < pl.bw; bx++ {
			mv := pl.mvs[by*pl.bw+bx]
			x := bx * h.bs
			w := min(h.bs, h.w-x)
			dx, dy := int(mv.DX), int(mv.DY)
			if pl.clampedOnly || h.halfPel || x+dx < 0 || x+w+dx > h.w || y+dy < 0 || y+hh+dy > h.h {
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
}

// span codes n pixels from offset o, predicted from reference offset r, at
// the constant quantiser q.
func (pl *residualPlane) span(o, r, n int, q int32) {
	src, ref, rp, res := pl.src[o:o+n], pl.ref[r:r+n], pl.rp[o:o+n], pl.res[o:o+n]
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
			pl.res[sy*h.w+sx] = qd
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

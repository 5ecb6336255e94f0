package codec

import (
	"encoding/binary"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// The encoder's frame kernels, in two forms that emit the same bytes. The
// reference form is the per-pixel loop: every reference coordinate clamped
// to the frame, one block after another, one slice after another. The
// shipped form hands each block row to a worker under the encoder's
// scheduler client — search, residual, reconstruction and the entropy coding
// of the row's slice — and, wherever a block's displaced footprint lies
// inside the frame, works on row slices; border blocks and vectors pointing
// off the frame fall back to the reference loop block by block. A slice
// depends on nothing but its own block row and read-only inputs, so the
// bitstream is the same at any GOMAXPROCS (DESIGN.md §18, §21).

// quantize is the inter quantiser: the level of prediction difference d at
// step q, rounding half away from zero.
func quantize(d, q int32) int32 {
	switch {
	case d > 0:
		return (d + q/2) / q
	case d < 0:
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
	j.h, j.bw, j.rng, j.clampedOnly = h, bw, e.cfg.SearchRange, e.reference
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

// intraSlice appends band by of an intra frame to buf: per plane, the band
// quantized into levels delta-predicted from 0 and reconstructed.
func (j *sliceJob) intraSlice(buf []byte, by int, vals []int32) []byte {
	h := j.h
	o := by * h.bs * h.w
	n := min(h.bs, h.h-by*h.bs) * h.w
	q := int32(h.q)
	vals = vals[:n]
	for p := 0; p < 3; p++ {
		src, rp := srcPlane(j.src, p)[o:o+n], reconPlane(j.recon, p)[o:o+n]
		prev := int32(0)
		for i, v := range src {
			qv := (int32(v) + q/2) / q
			vals[i] = qv - prev
			prev = qv
			rp[i] = clamp8(qv * q)
		}
		buf = appendSignedRLE(buf, vals)
	}
	return buf
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
		mvs[bx] = diamondSearch(j.src.G, j.ref.G, h.w, h.h, x, y, w, hh, j.rng, j.clampedOnly)
		vals[2*bx], vals[2*bx+1] = int32(mvs[bx].DX), int32(mvs[bx].DY)
	}
	buf = appendSignedRLE(buf, vals[:2*len(mvs)])
	for p := 0; p < 3; p++ {
		pl := residualPlane{h: h, band: y * h.w, src: srcPlane(j.src, p), ref: srcPlane(j.ref, p), rp: reconPlane(j.recon, p), res: vals[:hh*h.w]}
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
	band         int
	src, ref, rp []uint8
	res          []int32
}

// blockRow codes the blocks of the hh pixel rows from y. A block whose
// displaced footprint lies inside the frame needs no coordinate clamp, so it
// runs row slice by row slice; border blocks and vectors pointing off the
// frame — and, with clampedOnly, everything — keep the clamped per-pixel
// loop. Both produce the same values.
func (pl *residualPlane) blockRow(y, hh int, mvs []MV, clampedOnly bool) {
	h := pl.h
	for bx, mv := range mvs {
		x := bx * h.bs
		w := min(h.bs, h.w-x)
		dx, dy := int(mv.DX), int(mv.DY)
		if clampedOnly || x+dx < 0 || x+w+dx > h.w || y+dy < 0 || y+hh+dy > h.h {
			pl.blockClamped(x, y, w, hh, mv)
			continue
		}
		for sy := y; sy < y+hh; sy++ {
			pl.span(sy*h.w+x, (sy+dy)*h.w+x+dx, w)
		}
	}
}

// span codes n pixels from offset o, predicted from reference offset r.
func (pl *residualPlane) span(o, r, n int) {
	q := int32(pl.h.q)
	src, ref, rp, res := pl.src[o:o+n], pl.ref[r:r+n], pl.rp[o:o+n], pl.res[o-pl.band:o-pl.band+n]
	for i, v := range src {
		pred := int32(ref[i])
		qd := quantize(int32(v)-pred, q)
		res[i] = qd
		rp[i] = clamp8(pred + qd*q)
	}
}

// blockClamped is the general per-pixel loop: every reference coordinate is
// clamped to the frame.
func (pl *residualPlane) blockClamped(x, y, w, hh int, mv MV) {
	h := pl.h
	q := int32(h.q)
	for j := 0; j < hh; j++ {
		sy := y + j
		ry := clampInt(sy+int(mv.DY), 0, h.h-1)
		for i := 0; i < w; i++ {
			sx := x + i
			pred := int32(pl.ref[ry*h.w+clampInt(sx+int(mv.DX), 0, h.w-1)])
			qd := quantize(int32(pl.src[sy*h.w+sx])-pred, q)
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

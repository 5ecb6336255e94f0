package codec

// Half-pel motion compensation. Production codecs (H.264/VP9) estimate
// motion at sub-pixel precision because real camera pans rarely land on
// pixel boundaries; prediction from a bilinearly interpolated reference
// cuts residual energy substantially on slow pans. It is opt-in
// (Config.HalfPel) so the calibrated full-pel comparisons stay untouched;
// the codec ablation benches exercise both.
//
// Representation: with HalfPel enabled, MV.DX/DY are in half-pixel units
// (so the int8 range covers ±63 full pixels) and the frame header carries a
// flag so any decoder interprets the stream correctly. At the NEMO reuse
// stage a half-pel LR vector maps to a full-pel offset at ×2 — the scale
// the paper uses — so the HR reconstruction stays exact.

// predHalfPel samples the reference plane at (x + mvx/2, y + mvy/2) with
// bilinear interpolation for odd (fractional) components, clamping at the
// frame borders.
func predHalfPel(ref []uint8, W, H, x, y, mvx, mvy int) int32 {
	ix := x + (mvx >> 1)
	iy := y + (mvy >> 1)
	fx := mvx & 1
	fy := mvy & 1
	// Note: for negative odd mvx, mvx>>1 floors, and the fraction is
	// always +0.5 toward the next sample — consistent on both sides.
	x0 := clampInt(ix, 0, W-1)
	y0 := clampInt(iy, 0, H-1)
	if fx == 0 && fy == 0 {
		return int32(ref[y0*W+x0])
	}
	x1 := clampInt(ix+fx, 0, W-1)
	y1 := clampInt(iy+fy, 0, H-1)
	a := int32(ref[y0*W+x0])
	b := int32(ref[y0*W+x1])
	c := int32(ref[y1*W+x0])
	d := int32(ref[y1*W+x1])
	switch {
	case fx == 1 && fy == 0:
		return (a + b + 1) / 2
	case fx == 0 && fy == 1:
		return (a + c + 1) / 2
	default:
		return (a + b + c + d + 2) / 4
	}
}

// sadHalfPel computes the SAD of the block at (x, y) against the reference
// displaced by (mvx, mvy) half-pels.
func sadHalfPel(cur, ref []uint8, W, H, x, y, w, h, mvx, mvy int) int {
	total := 0
	for j := 0; j < h; j++ {
		sy := y + j
		crow := sy * W
		for i := 0; i < w; i++ {
			sx := x + i
			d := int(cur[crow+sx]) - int(predHalfPel(ref, W, H, sx, sy, mvx, mvy))
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}

// halfPelSearch runs the full-pel diamond search and then refines the best
// vector over its eight half-pel neighbours. The result is in half-pel
// units.
func halfPelSearch(cur, ref []uint8, W, H, x, y, w, h, rng int) MV {
	full := diamondSearch(cur, ref, W, H, x, y, w, h, rng, true)
	bx := int(full.DX) * 2
	by := int(full.DY) * 2
	best := sadHalfPel(cur, ref, W, H, x, y, w, h, bx, by)
	cb, cbx, cby := best, bx, by
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := bx+dx, by+dy
			if nx < -127 || nx > 127 || ny < -127 || ny > 127 {
				continue
			}
			if s := sadHalfPel(cur, ref, W, H, x, y, w, h, nx, ny); s < cb {
				cb, cbx, cby = s, nx, ny
			}
		}
	}
	return MV{DX: int8(cbx), DY: int8(cby)}
}
